package core

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/workflow"
)

// TestPressureBlockIsNotPartOfTFLU pins Eq. 1's operand: T_FLU is the
// handler's compute, not compute plus the Callstack block Put made it sit
// through. A handler that computes nothing and puts S bytes must be blocked
// α·S/Bw on every run; when the block fed its own T_FLU the second run was
// not blocked at all and later runs by about half.
func TestPressureBlockIsNotPartOfTFLU(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	sys := newPressureSystem(t, clk, 2.0)
	payload := make([]byte, 64<<10)
	wire := time.Duration(float64(len(payload)) / 5e6 * float64(time.Second))
	pressure := 2 * wire

	// Each run's Put, on the virtual clock. (The request completes when the
	// sink answers, which is before the producer's block ends.)
	blocked := make(chan time.Duration, 1)
	_ = sys.Register("producer", func(ctx *Context) error {
		start := clk.Now()
		err := ctx.Put("big", payload)
		blocked <- clk.Now().Sub(start)
		return err
	})
	_ = sys.Register("sink", func(ctx *Context) error { return ctx.Put("done", []byte("ok")) })

	blocks := make([]time.Duration, 10)
	for run := range blocks {
		inv, err := sys.Invoke(map[string][]byte{"producer.in": []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		// The clock moves only while two sleepers are parked — the producer
		// in its block beside first the daemon pacing the chunk, then the
		// sink's own sub-microsecond block — so no virtual time passes while
		// the handler is outside its block: T_compute is exactly zero.
		returned := false
		for _, d := range []time.Duration{wire, pressure - wire} {
			waitFor(t, 10*time.Second, func() bool {
				select {
				case blocks[run] = <-blocked:
					returned = true
				default:
				}
				return returned || clk.Pending() >= 2
			}, "timed out waiting for the producer to block or return")
			if returned {
				break
			}
			clk.Advance(d)
		}
		if !returned {
			select {
			case blocks[run] = <-blocked:
			case <-time.After(10 * time.Second):
				t.Fatalf("run %d: Put still blocked after its %v pressure block", run+1, pressure)
			}
		}
		// A run that was not blocked left the shipment parked; let it land.
		waitFor(t, 10*time.Second, func() bool {
			select {
			case <-inv.Done():
				return true
			default:
				clk.Advance(wire)
				return false
			}
		}, "timed out waiting for the request to complete")
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for _, run := range []int{2, 10} {
		if got := blocks[run-1]; got != pressure {
			t.Errorf("run %d: Put blocked %v, want the full α·S/Bw = %v (all runs: %v)", run, got, pressure, blocks)
		}
	}
}

// TestLimiterParkOnFLUGoroutineIsNotPartOfTFLU extends the property to the
// inline ship: a Put the FLU ships itself may park in the container's TC
// class, on the FLU's goroutine. That park is the engine's pacing, not the
// handler's compute — a producer that computes nothing must still measure
// T_FLU = 0, while its Put took the whole wire time to return.
func TestLimiterParkOnFLUGoroutineIsNotPartOfTFLU(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	wf, err := workflow.ParseDSLString(pressureDSL)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for _, name := range []string{"w1", "w2"} {
		if err := cl.AddNode(cluster.NewNode(name, cluster.Options{Clock: clk})); err != nil {
			t.Fatal(err)
		}
	}
	// Eq. 1 is off: with T_FLU = 0 it would send every Put to the daemon.
	sys, err := NewSystem(Config{
		Workflow:        wf,
		Cluster:         cl,
		DefaultSpec:     cluster.Spec{MemoryMB: 128}, // 5 MB/s
		DisablePressure: true,
		Clock:           clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	// The largest payload of the socket fast path: 3.3 ms on the wire, well
	// over the limiter's park granularity.
	payload := make([]byte, 16<<10)
	wire := time.Duration(float64(len(payload)) / 5e6 * float64(time.Second))
	took := make(chan time.Duration, 1)
	_ = sys.Register("producer", func(ctx *Context) error {
		start := clk.Now()
		err := ctx.Put("big", payload)
		took <- clk.Now().Sub(start)
		return err
	})
	_ = sys.Register("sink", func(ctx *Context) error { return ctx.Put("done", []byte("ok")) })
	for run := 1; run <= 5; run++ {
		inv, err := sys.Invoke(map[string][]byte{"producer.in": []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		waitParked(t, clk, 1, "the producer's Put to park in the limiter")
		clk.Advance(wire)
		if got := <-took; got != wire {
			t.Fatalf("run %d: Put returned after %v, want the %v the FLU itself paced the shipment for", run, got, wire)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return sys.fns["producer"].fluCount.Load() == 5 }, "the producer's runs were never observed")
	if got := sys.FLUAvg("producer"); got != 0 {
		t.Fatalf("T_FLU = %v after five zero-compute runs that each parked %v in the limiter, want 0", got, wire)
	}
}
