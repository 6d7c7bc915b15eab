package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/workflow"
)

// stormUntilShutdown runs eight closed-loop invokers against sys, shuts it
// down delay after they start — concurrently with the storm — and returns
// every admitted invocation once the invokers have seen the shutdown.
func stormUntilShutdown(sys *System, delay time.Duration, input func(g, i int) map[string][]byte) []*Invocation {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var invs []*Invocation
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				inv, err := sys.Invoke(input(g, i))
				if err != nil {
					return // shutdown observed
				}
				mu.Lock()
				invs = append(invs, inv)
				mu.Unlock()
			}
		}(g)
	}
	time.Sleep(delay)
	sys.Shutdown()
	wg.Wait()
	return invs
}

// completedOf counts the invocations that resolved; requests abandoned
// mid-flight simply stay open.
func completedOf(invs []*Invocation) (done []*Invocation) {
	for _, inv := range invs {
		select {
		case <-inv.Done():
			done = append(done, inv)
		default:
		}
	}
	return done
}

// TestShutdownDuringInvokeStorm pins the dluEnqueue/Shutdown protocol: a
// Shutdown issued while a storm of requests is in flight must never panic
// (the old global channel registry closed channels under a send) and must
// return with every background goroutine drained. In-flight requests may be
// abandoned — their Done channels stay open — but nothing may hang: the
// system itself is quiescent (bg drained by Shutdown). Run with -race in CI.
func TestShutdownDuringInvokeStorm(t *testing.T) {
	wf, err := workflow.ParseDSLString(`
workflow storm
function a
  input in from $USER
  output x to b.x
function b
  input x
  output out to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		cl := cluster.NewCluster(nil)
		for i := 1; i <= 2; i++ {
			if err := cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{})); err != nil {
				t.Fatal(err)
			}
		}
		sys, err := NewSystem(Config{
			Workflow:    wf,
			Cluster:     cl,
			DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024},
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = sys.Register("a", func(ctx *Context) error {
			in, _ := ctx.Input("in")
			return ctx.Put("x", in)
		})
		_ = sys.Register("b", func(ctx *Context) error {
			x, _ := ctx.Input("x")
			return ctx.Put("out", x)
		})

		// Let the storm build, then shut down concurrently with it.
		in := map[string][]byte{"a.in": []byte("x")}
		invs := stormUntilShutdown(sys, time.Duration(round)*time.Millisecond, func(int, int) map[string][]byte { return in })
		sys.Shutdown() // idempotent
		if _, err := sys.Invoke(in); err == nil {
			t.Fatal("Invoke accepted after Shutdown")
		}
		t.Logf("round %d: %d/%d requests completed before shutdown", round, len(completedOf(invs)), len(invs))
	}
}

// TestGateStormVsShutdown races Shutdown, at a random instant, against
// closed-loop Invoke storms whose handlers call Invoke too. Every Invoke is
// admitted or refused with the shut-down error. An admitted request resolves
// — cleanly, or with the shut-down error a refused nested Invoke failed its
// handler with — or is abandoned by a refused Put. After Shutdown the gate is
// level and no request resolves any more: no work is left to finish one.
// Every round's goroutines are gone at the end. Run with -race in CI.
func TestGateStormVsShutdown(t *testing.T) {
	clock.NewWall().Sleep(time.Microsecond) // start the process-wide parker before the baseline
	baseline := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(31))
	nest := map[string][]byte{"a.in": []byte("nest")}
	for round := 0; round < 24; round++ {
		sys := newChainSystem(t, 2, nil, func(c *Config) { c.DisablePressure = true })
		var mu sync.Mutex
		var admitted []*Invocation
		var refused []error
		record := func(inv *Invocation, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				refused = append(refused, err)
			} else {
				admitted = append(admitted, inv)
			}
		}
		_ = sys.Register("a", func(ctx *Context) error {
			in, _ := ctx.Input("in")
			if string(in) == "nest" {
				inv, err := sys.Invoke(chainIn)
				record(inv, err)
				if err != nil {
					return err
				}
			}
			return ctx.Put("x", in)
		})
		// Each invoker keeps up to eight requests open, waiting on the oldest
		// until the gate closes, then invokes until refused. Unbounded, the
		// handlers holding a's instance cap would pile up until every slot
		// waited on its own nested Invoke; three nesting invokers hold 24 of 32.
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			in := chainIn
			if g%2 == 1 {
				in = nest
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var open []*Invocation
				for {
					inv, err := sys.Invoke(in)
					record(inv, err)
					if err != nil {
						return
					}
					for open = append(open, inv); len(open) == 8 && !sys.gate.closed.Load(); {
						select {
						case <-open[0].Done():
							open = open[1:]
						case <-time.After(time.Millisecond):
						}
					}
				}
			}()
		}
		time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
		sys.Shutdown()
		wg.Wait()
		if f, n := sys.gate.finished.Load(), sys.gate.started.Load(); n != f {
			t.Fatalf("round %d: %d gate counts still in flight after Shutdown", round, n-f)
		}
		resolved := len(completedOf(admitted))
		time.Sleep(10 * time.Millisecond)
		for _, err := range refused {
			if !errors.Is(err, errShutdown) {
				t.Fatalf("round %d: Invoke refused with %v, want the shut-down error", round, err)
			}
		}
		done, failed := completedOf(admitted), 0
		for _, inv := range done {
			if err := inv.Err(); err != nil {
				if !errors.Is(err, errShutdown) {
					t.Fatalf("round %d: %s failed with %v", round, inv.ReqID(), err)
				}
				failed++
			}
		}
		if len(done) != resolved {
			t.Fatalf("round %d: %d requests resolved after Shutdown returned", round, len(done)-resolved)
		}
		t.Logf("round %d: %d admitted (%d resolved, %d of them failed), %d refused", round, len(admitted), resolved, failed, len(refused))
	}
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= baseline },
		fmt.Sprintf("goroutines did not return to the baseline of %d", baseline))
}
