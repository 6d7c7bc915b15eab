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
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= baseline },
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
