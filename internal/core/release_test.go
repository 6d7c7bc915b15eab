package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// hostOf returns the node fn is placed on.
func hostOf(t *testing.T, sys *System, fn string) *cluster.Node {
	t.Helper()
	n, ok := sys.cfg.Cluster.Node(sys.Routing()[fn])
	if !ok {
		t.Fatalf("%s is not placed", fn)
	}
	return n
}

// These tests pin when an entry leaves a remote sink (sinkNode); in process
// nothing enters one.

// TestSingleInstanceInputReleasedAtFetch pins the release rule for an input
// of a function no FOREACH edge targets: it leaves the Wait-Match Memory when
// its one instance fetches it, not at request teardown. With c parked in its
// handler, b has long fetched a's 64 KiB and b's node must hold none of it.
func TestSingleInstanceInputReleasedAtFetch(t *testing.T) {
	sys := newSystemFromDSLOf(t, `
workflow relay
function a
  input in from $USER
  output o to b.x
function b
  input x
  output o to c.x
function c
  input x
  output out to $USER
`, 3, sinkNode)
	defer sys.Shutdown()
	relay := func(ctx *Context) error {
		x, err := ctx.Input("x")
		if err != nil {
			return err
		}
		return ctx.Put("o", x)
	}
	parked, gate := make(chan struct{}), make(chan struct{})
	_ = sys.Register("a", func(ctx *Context) error {
		in, err := ctx.Input("in")
		if err != nil {
			return err
		}
		return ctx.Put("o", in)
	})
	_ = sys.Register("b", relay)
	_ = sys.Register("c", func(ctx *Context) error {
		x, err := ctx.Input("x")
		if err != nil {
			return err
		}
		close(parked)
		<-gate
		return ctx.Put("out", x)
	})
	payload := bytes.Repeat([]byte("p"), 64<<10)
	inv, err := sys.Invoke(map[string][]byte{"a.in": payload})
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	bNode := hostOf(t, sys, "b")
	if held := sinkOf(bNode).MemBytes(); held != 0 {
		t.Errorf("b's node holds %d bytes while c runs; a -> b was fetched and must be gone", held)
	}
	if st := sinkOf(bNode).Stats(); st.ProactiveReleases != 1 || st.MemHits != 1 {
		t.Errorf("b's node sink stats %+v, want the a -> b entry proactively released by its one Get", st)
	}
	if st := sys.SinkStats(); st.Puts != 2 || st.ProactiveReleases != 2 {
		t.Errorf("merged sink stats %+v while c runs, want both edges put and released", st)
	}
	close(gate)
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	if out, _ := inv.OutputBytes("out"); !bytes.Equal(out, payload) {
		t.Fatalf("out = %d bytes, want the payload relayed", len(out))
	}
	requireSinksDrained(t, sys)
}

// TestSharedInputOfFannedFunctionReleasedAtTeardown is the mirror: a NORMAL
// edge into a FOREACH-fanned function is one entry every instance reads, so
// it stays resident while they run and teardown reclaims it. Each instance's
// own FOREACH element still leaves at fetch.
func TestSharedInputOfFannedFunctionReleasedAtTeardown(t *testing.T) {
	sys := newSystemFromDSLOf(t, `
workflow fanshared
function a
  input in from $USER
  output parts type FOREACH to b.part
  output seed to k.seed
function k
  input seed
  output cfg to b.cfg
function b
  input part
  input cfg
  output piece type MERGE to c.list
function c
  input list type LIST
  output out to $USER
`, 3, sinkNode)
	defer sys.Shutdown()
	const fan = 4
	cfg := bytes.Repeat([]byte("c"), 64<<10)
	_ = sys.Register("a", func(ctx *Context) error {
		in, err := ctx.Input("in")
		if err != nil {
			return err
		}
		parts := make([][]byte, fan)
		for i := range parts {
			parts[i] = in
		}
		if err := ctx.PutForeach("parts", parts); err != nil {
			return err
		}
		return ctx.Put("seed", in)
	})
	_ = sys.Register("k", func(ctx *Context) error { return ctx.Put("cfg", cfg) })
	var running sync.WaitGroup
	running.Add(fan)
	gate := make(chan struct{})
	_ = sys.Register("b", func(ctx *Context) error {
		got, err := ctx.Input("cfg")
		if err != nil || !bytes.Equal(got, cfg) {
			return errors.New("b did not receive the shared input")
		}
		part, err := ctx.Input("part")
		if err != nil {
			return err
		}
		running.Done()
		<-gate
		return ctx.Put("piece", part)
	})
	_ = sys.Register("c", func(ctx *Context) error {
		parts, err := ctx.InputList("list")
		if err != nil {
			return err
		}
		return ctx.Put("out", bytes.Join(parts, nil))
	})
	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("part")})
	if err != nil {
		t.Fatal(err)
	}
	running.Wait()
	bNode := hostOf(t, sys, "b")
	if held := sinkOf(bNode).MemBytes(); held != int64(len(cfg)) {
		t.Errorf("b's node holds %d bytes while its %d instances run, want the shared %d (elements fetched, shared input resident)", held, fan, len(cfg))
	}
	close(gate)
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	if out, _ := inv.OutputBytes("out"); string(out) != "partpartpartpart" {
		t.Fatalf("out = %q", out)
	}
	requireSinksDrained(t, sys)
}

// crossDSL has c wait for both a and b, so failing a ends the request while
// b's shipment to c is still wanted by nobody: the land and the teardown
// flag flip can be put in either order.
const crossDSL = `
workflow cross
function src
  input in from $USER
  output o to a.x, b.x
function a
  input x
  output y to c.y
function b
  input x
  output x to c.x
function c
  input x
  input y
  output out to $USER
`

// TestLandAcrossTeardownFlip lands b's shipment on either side of the
// request's teardown and racing it (the storm belongs under -race). Whichever
// comes first, nothing outlives the request: a land that finds the request
// torn down reclaims its own entries, one that precedes the flip is swept.
func TestLandAcrossTeardownFlip(t *testing.T) {
	errBoom := errors.New("boom")
	newCross := func(t *testing.T, a, b Handler) *System {
		// No Eq. 1 block: every Put ships through its container's DLU daemon
		// toward the remote sinks without holding its handler.
		sys := newSystemFromDSLOf(t, crossDSL, 3, sinkNode, func(c *Config) { c.DisablePressure = true })
		_ = sys.Register("src", func(ctx *Context) error {
			in, _ := ctx.Input("in")
			return ctx.Put("o", in)
		})
		_ = sys.Register("a", a)
		_ = sys.Register("b", b)
		_ = sys.Register("c", func(ctx *Context) error {
			x, _ := ctx.Input("x")
			return ctx.Put("out", x)
		})
		return sys
	}
	putX := func(ctx *Context) error {
		x, _ := ctx.Input("x")
		return ctx.Put("x", x)
	}
	invoke := func(t *testing.T, sys *System) *Invocation {
		inv, err := sys.Invoke(map[string][]byte{"src.in": []byte("payload")})
		if err != nil {
			t.Fatal(err)
		}
		return inv
	}

	t.Run("land-then-flip", func(t *testing.T) {
		var sys *System
		// a fails once the sinks took all three puts: src's two and b's.
		landed := func(*Context) error {
			for deadline := time.Now().Add(10 * time.Second); sys.SinkStats().Puts < 3; runtime.Gosched() {
				if time.Now().After(deadline) {
					return errors.New("b's shipment never landed")
				}
			}
			return errBoom
		}
		sys = newCross(t, landed, putX)
		defer sys.Shutdown()
		if err := invoke(t, sys).Wait(); !errors.Is(err, errBoom) {
			t.Fatalf("Wait = %v, want the handler's error", err)
		}
		requireSinksDrained(t, sys)
	})

	t.Run("flip-then-land", func(t *testing.T) {
		landed := make(chan struct{})
		sys := newCross(t,
			func(*Context) error { return errBoom },
			func(ctx *Context) error {
				<-ctx.req.inv.Done()
				err := putX(ctx)
				close(landed)
				return err
			})
		defer sys.Shutdown()
		if err := invoke(t, sys).Wait(); !errors.Is(err, errBoom) {
			t.Fatalf("Wait = %v, want the handler's error", err)
		}
		<-landed
		settle(t, sys, nil) // b's daemon has shipped
		requireSinksDrained(t, sys)
	})

	t.Run("racing", func(t *testing.T) {
		sys := newCross(t, func(*Context) error { return errBoom }, putX)
		invs := make([]*Invocation, 64)
		for i := range invs {
			invs[i] = invoke(t, sys)
		}
		for _, inv := range invs {
			if err := inv.Wait(); !errors.Is(err, errBoom) {
				t.Fatalf("Wait = %v, want the handler's error", err)
			}
		}
		sys.Shutdown() // b's late instances and their ships finish first
		requireSinksDrained(t, sys)
	})
}
