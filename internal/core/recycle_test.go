package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// These tests pin the lifetime of a request's engine state (request.go): it
// is recycled only once the last job, queued task or parked continuation
// holding it is done, never at finish. Each hazard leaves engine work of a
// request running after its handle reported the outcome, while a storm of
// other requests keeps taking state off the free-lists: state recycled too
// early is reused by one of them, which trips the generation assert (the
// package's tests run with checkGen on), mixes one request's data into
// another's outputs, or leaves a sink entry behind. Run with -race in CI.

// recycleDSL fans src out to a and b; b relays through c. Each of a and c
// delivers the request's own payload to the user.
const recycleDSL = `
workflow recycle
function src
  input in from $USER
  output o to a.x, b.x
function a
  input x
  output ao to $USER
function b
  input x
  output bo to c.y
function c
  input y
  output co to $USER
`

var errEvenFails = errors.New("a fails even requests")

// recycleStorm runs requests through recycleDSL from eight goroutines. Half
// of them fail, with work of theirs still to run: a's handler fails an even
// payload sequence while b waits for the request to finish and only then Puts
// size bytes to c (late), or — with inject — the stream to a of an even
// request number fails while b's shipment is in the same batch behind it.
// The rest must deliver their own payload on both user outputs. Afterwards
// nothing may stay tracked, every sink must be empty, the free-lists must
// hold recycled state, and after Shutdown every goroutine must be gone.
func recycleStorm(t *testing.T, requests, size int, inject bool) {
	if testing.Short() {
		t.Skip("storm test")
	}
	clock.NewWall().Sleep(time.Microsecond) // start the process-wide parker before the baseline
	baseline := runtime.NumGoroutine()
	sys := newSystemFromDSL(t, recycleDSL, 3, func(c *Config) { c.DisablePressure = true })
	seqOf := func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
	relayTo := func(in, out string) Handler {
		return func(ctx *Context) error {
			x, err := ctx.Input(in)
			if err != nil {
				return err
			}
			return ctx.Put(out, x)
		}
	}
	_ = sys.Register("src", relayTo("in", "o"))
	_ = sys.Register("c", relayTo("y", "co"))
	_ = sys.Register("a", func(ctx *Context) error {
		x, _ := ctx.Input("x")
		if !inject && seqOf(x)%2 == 0 {
			return errEvenFails
		}
		return ctx.Put("ao", x)
	})
	_ = sys.Register("b", func(ctx *Context) error {
		x, _ := ctx.Input("x")
		if !inject && seqOf(x)%2 == 0 {
			// The request fails under a; this Put comes after its finish.
			if err := ctx.req.inv.Wait(); !errors.Is(err, errEvenFails) {
				return fmt.Errorf("b waited out %v, want a's failure", err)
			}
		}
		return ctx.Put("bo", x)
	})
	failing := func(inv *Invocation) bool {
		n, _ := strconv.Atoi(strings.TrimPrefix(inv.ReqID(), "req-"))
		return n%2 == 0
	}
	if inject {
		sys.SetTransferFailureInjector(func(id string) int64 {
			// id is "req-<n>/src[0].o->a[-1]" for the stream that fails.
			req, rest, _ := strings.Cut(id, "/")
			if n, _ := strconv.Atoi(strings.TrimPrefix(req, "req-")); n%2 == 0 && strings.HasPrefix(rest, "src[0].o->a[") {
				return 0
			}
			return -1
		})
	}

	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + g)}, max(size, 8))
			for i := g; i < requests; i += goroutines {
				binary.LittleEndian.PutUint64(payload, uint64(i))
				in := bytes.Clone(payload)
				inv, err := sys.Invoke(map[string][]byte{"src.in": in})
				if err != nil {
					errs <- err
					return
				}
				err = inv.Wait()
				if fail := (!inject && i%2 == 0) || (inject && failing(inv)); fail {
					if err == nil {
						errs <- fmt.Errorf("request %d (%s) succeeded, want it failed", i, inv.ReqID())
						return
					}
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("request %d (%s): %w", i, inv.ReqID(), err)
					return
				}
				for _, out := range []string{"ao", "co"} {
					if got, _ := inv.OutputBytes(out); !bytes.Equal(got, in) {
						errs <- fmt.Errorf("request %d (%s): %s carries another request's data", i, inv.ReqID(), out)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The late Puts, lands and instances of failed requests may still run:
	// Shutdown waits them out.
	sys.Shutdown()
	requireSinksDrained(t, sys)
	recycled := 0
	for i := range sys.freeReqs {
		recycled += sys.freeReqs[i].n
	}
	if recycled == 0 {
		t.Fatal("no request state came back to a free-list")
	}
	until(t, func() bool { return runtime.NumGoroutine() <= baseline },
		fmt.Sprintf("goroutines did not return to the baseline of %d", baseline))
}

// TestRecycleLifetimeStorm drives the three hazards. late-put: b's small Put
// after its request failed ships inline from a producer that outlived the
// finish. torn-stream: the same Put is a streaming relay hop, shipped by the
// DLU daemon, whose landBatch finds the request torn down and reclaims its
// own entry. injected-failure: the request fails inside the DLU daemon, with
// b's shipment still queued in the same batch behind the failed stream.
func TestRecycleLifetimeStorm(t *testing.T) {
	const requests = 10000
	t.Run("late-put", func(t *testing.T) { recycleStorm(t, requests, 64, false) })
	t.Run("torn-stream", func(t *testing.T) { recycleStorm(t, requests, 20<<10, false) })
	t.Run("injected-failure", func(t *testing.T) { recycleStorm(t, requests, 64, true) })
}

// TestHandleReadersSeeNothingOrTheOutcome: once a request finished, the
// handle's accessors read its outcome without a lock — finish writes it, then
// publishes it with one atomic store. Readers racing finish see each
// accessor's pre-finish zero value or its final value, never a torn one, and
// only final values from the first they see on (every one, once Done is
// closed); under -race the detector checks the publication itself. Half the
// requests succeed, half fail.
func TestHandleReadersSeeNothingOrTheOutcome(t *testing.T) {
	const dsl = `
workflow one
function a
  input in from $USER
  output out to $USER
`
	clk := clock.NewManual()
	sys := dslSystem(t, dsl, 1, func(c *Config) { c.Clock = clk })
	// Each request's first run lasts 1 ms of virtual time, a step the test
	// takes while the run is held, so a stays off the caller; nothing sleeps
	// on the clock.
	const lat = time.Millisecond
	for i := 0; i < 40; i++ {
		started, release, fail := make(chan struct{}), make(chan struct{}), i%2 == 1
		_ = sys.Register("a", func(ctx *Context) error {
			select {
			case <-started: // a ReDo
			default:
				close(started)
			}
			<-release
			if fail {
				return errors.New("always broken")
			}
			in, _ := ctx.Input("in")
			return ctx.Put("out", in)
		})
		payload := []byte("req-" + strconv.Itoa(i))
		inv := invokeReturns(t, sys, map[string][]byte{"a.in": payload})
		// read checks one pass over the accessors; seen says a final value
		// has been read (or Done was closed), so every value must be final.
		read := func(seen bool) (bool, error) {
			err, l, outs := inv.Err(), inv.Latency(), inv.Outputs()
			out, ok := inv.OutputBytes("out")
			for _, v := range []struct {
				name        string
				zero, final bool
			}{
				{"Err", err == nil, (err == nil) == !fail && (err == nil || strings.Contains(err.Error(), "always broken"))},
				{"Latency", l == 0, l == lat},
				{"Outputs", outs == nil, outs != nil && (fail && len(outs) == 0 || !fail && len(outs) == 1 && bytes.Equal(outs[0].Value.Payload, payload))},
				{"OutputBytes", !ok && out == nil, ok == !fail && (fail || bytes.Equal(out, payload))},
			} {
				if !v.final && (seen || !v.zero) {
					return seen, fmt.Errorf("request %d: %s read neither %s (err=%v lat=%v outputs=%d out=%q ok=%v)",
						i, v.name, map[bool]string{false: "its zero nor its final value", true: "its final value after one was seen"}[seen],
						err, l, len(outs), out, ok)
				}
				seen = seen || v.final && !v.zero
			}
			return seen, nil
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seen := false; ; runtime.Gosched() {
					var finished bool
					select {
					case <-inv.Done():
						finished = true
					default:
					}
					var err error
					if seen, err = read(seen || finished); err != nil {
						errs <- err
						return
					}
					if finished {
						return
					}
				}
			}()
		}
		<-started // the run's reading is taken: it lasts lat
		clk.Advance(lat)
		close(release)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestDoneRacesFinish: Done makes its channel on first use and finish closes
// whichever channel it finds, so the two race. Several goroutines call Done
// while finish runs, over a few hundred handles: once Wait returned, every
// channel any Done returned is closed, and a Done after the finish returns a
// closed channel — also on a handle nobody asked before. A finish that only
// loads the channel, leaving nothing for a later Done to find, fails it.
func TestDoneRacesFinish(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	const requests, callers = 300, 4
	for i := 0; i < requests; i++ {
		inv := &Invocation{id: int64(i)}
		inv.wg.Add(1)
		got := make([][]<-chan struct{}, callers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for k := 0; k < 1+i%8; k++ {
					got[g] = append(got[g], inv.Done())
					runtime.Gosched()
				}
			}(g)
		}
		if i%3 != 0 { // every third handle finishes before anyone asks
			close(start)
		}
		go inv.finish(nil, time.Duration(i), nil)
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		if !closed(inv.Done()) {
			t.Fatalf("request %d: Done after finish returned an open channel", i)
		}
		if i%3 == 0 {
			close(start)
		}
		wg.Wait()
		for g := range got {
			for k, ch := range got[g] {
				if !closed(ch) {
					t.Fatalf("request %d: caller %d's Done #%d returned a channel finish never closed", i, g, k)
				}
			}
		}
	}
}
