package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wmm"
	"repro/internal/workflow"
)

// TestPressureBlockIsNotPartOfTFLU pins Eq. 1's operand: T_FLU is the
// handler's compute, not compute plus the Callstack block Put made it sit
// through. A handler that computes nothing and puts S bytes must be blocked
// α·S/Bw on every run; when the block fed its own T_FLU the second run was
// not blocked at all and later runs by about half.
func TestPressureBlockIsNotPartOfTFLU(t *testing.T) {
	clk := clock.NewManual()
	sys := newPressureSystem(t, clk, 2.0, nil)
	payload := make([]byte, 64<<10)
	wire := time.Duration(float64(len(payload)) / 5e6 * float64(time.Second))
	pressure := 2 * wire

	// Each run's Put, on the virtual clock.
	blocked := make(chan time.Duration, 1)
	_ = sys.Register("producer", func(ctx *Context) error {
		start := clk.Now()
		err := ctx.Put("big", payload)
		blocked <- clk.Now() - start
		return err
	})
	_ = sys.Register("sink", func(ctx *Context) error { return ctx.Put("done", []byte("ok")) })

	blocks := make([]time.Duration, 10)
	for run := range blocks {
		blocks[run] = throttled(t, sys, clk, blocked, fmt.Sprintf("run %d", run+1))
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
	clk := clock.NewManual()
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
		took <- clk.Now() - start
		return err
	})
	_ = sys.Register("sink", func(ctx *Context) error { return ctx.Put("done", []byte("ok")) })
	for run := 1; run <= 5; run++ {
		inv, err := sys.Invoke(map[string][]byte{"producer.in": []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		waitClosed(t, clk.Parked(1), "the producer's Put to park in the limiter")
		clk.Advance(wire)
		if got := <-took; got != wire {
			t.Fatalf("run %d: Put returned after %v, want the %v the FLU itself paced the shipment for", run, got, wire)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		// The request can be done before the producer's run is observed:
		// the next run's step must not fall inside this one.
		settle(t, sys, clk)
	}
	if got := sys.FLUAvg("producer"); got != 0 {
		t.Fatalf("T_FLU = %v after five zero-compute runs that each parked %v in the limiter, want 0", got, wire)
	}
}

// TestPublishedTFLUIsAtMostSixteenRunsBehind pins the cadence Put's Eq. 1
// operand is published on: a stripe's first run and every sixteenth, and at
// once after a run that was throttled or alone reached the gate. Between
// publications the word stands still while the exact mean moves.
func TestPublishedTFLUIsAtMostSixteenRunsBehind(t *testing.T) {
	const us = time.Microsecond
	var f fnState
	published := func(want time.Duration, why string) {
		t.Helper()
		got, sampled := f.tfluPublished()
		if !sampled || got != want {
			t.Fatalf("%s: published T_FLU = %v (sampled %v), want %v (exact mean %v)", why, got, sampled, want, f.avg())
		}
	}
	if _, sampled := f.tfluPublished(); sampled {
		t.Fatal("a function nobody ran reads as sampled")
	}
	f.observe(3, 10*us, 0)
	published(10*us, "a stripe's first run")
	for i := 0; i < 14; i++ {
		f.observe(3, 40*us, 0)
	}
	published(10*us, "runs 2 to 15 of the stripe, all brief and unthrottled")
	if exact := f.avg(); exact != (10+14*40)*us/15 {
		t.Fatalf("the exact mean reads %v", exact)
	}
	f.observe(3, 40*us, 0)
	published(f.avg(), "the stripe's sixteenth run")
	f.observe(5, 0, 0)
	published(f.avg(), "another stripe's first run")
	stale := f.avg()
	f.observe(5, 30*us, 0)
	published(stale, "the second stripe's second run")
	if f.avg() == stale {
		t.Fatal("the exact mean did not move")
	}
	f.observe(5, 30*us, 20*us)
	published(f.avg(), "a throttled run")
	f.observe(3, 2*us, 0)
	f.observe(5, continuationMaxTFLU, 0)
	published(f.avg(), "a run that alone reached the gate")
}

// TestNextPutSeesAThrottledRunsTFLU is the same through the engine. Every
// stripe has had its first run (all block, no compute: Invoke must not take
// the producer for brief), so whichever one a request lands on, nothing but
// the throttle publishes. A producer that computes 10 ms, then 4 ms, then
// puts S bytes is blocked α·S/Bw on its first run — T_FLU reads 0 over eight
// runs — by the new mean of 10/9 ms less on the second and of 14/10 ms less on
// the third: a throttled run publishes its T_FLU before the next Put can read
// it, not fourteen runs later.
func TestNextPutSeesAThrottledRunsTFLU(t *testing.T) {
	const ms = time.Millisecond
	clk := clock.NewManual()
	sys := newPressureSystem(t, clk, 2.0, nil)
	payload := make([]byte, 64<<10)
	wire := time.Duration(float64(len(payload)) / 5e6 * float64(time.Second))
	pressure := 2 * wire
	compute, blocked := make(chan time.Duration, 1), make(chan time.Duration, 1)
	_ = sys.Register("producer", func(ctx *Context) error {
		clk.Advance(<-compute) // between requests nothing is parked on the clock
		start := clk.Now()
		err := ctx.Put("big", payload)
		blocked <- clk.Now() - start
		return err
	})
	_ = sys.Register("sink", func(ctx *Context) error { return ctx.Put("done", []byte("ok")) })
	producer := sys.fns["producer"]
	for stripe := uint32(0); stripe < obs.NumStripes; stripe++ {
		producer.observe(stripe, 10*ms, 10*ms)
	}
	for run, step := range []struct{ compute, want time.Duration }{
		{10 * ms, pressure}, {4 * ms, pressure - 10*ms/9}, {4 * ms, pressure - 14*ms/10},
	} {
		compute <- step.compute
		got := throttled(t, sys, clk, blocked, fmt.Sprintf("run %d", run+1))
		if want := step.want; got != want {
			t.Fatalf("run %d: Put blocked %v, want %v (T_FLU now %v)", run+1, got, want, sys.FLUAvg("producer"))
		}
	}
}

// TestRemotePutIsPricedAtTheContainersRate pins Eq. 1's Bw: the producing
// container's TC rate, whichever node the consumer is on. The remote
// consumer's node reaches its sink through an in-process transport. A
// producer with T_FLU 0 that puts S bytes must block α·S/Bw at the
// container's 5 MB/s toward it, exactly as toward a local node.
func TestRemotePutIsPricedAtTheContainersRate(t *testing.T) {
	const ms = time.Millisecond
	payload := make([]byte, 64<<10)
	wire := time.Duration(float64(len(payload)) / 5e6 * float64(time.Second))
	want := 2 * wire
	for _, tc := range []struct {
		name     string
		consumer func(clk *clock.Manual, opts cluster.Options) *cluster.Node
	}{
		{"local", nil},
		{"remote", func(clk *clock.Manual, opts cluster.Options) *cluster.Node {
			start := clk.Now()
			in := transport.NewInproc(wmm.NewSink(wmm.Options{}), nil, func() time.Duration { return clk.Now() - start })
			return cluster.NewRemoteNode("w2", in, false, opts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual()
			sys := newPressureSystem(t, clk, 2.0, tc.consumer)
			blocked := make(chan time.Duration, 1)
			_ = sys.Register("producer", func(ctx *Context) error {
				start := clk.Now()
				err := ctx.Put("big", payload)
				blocked <- clk.Now() - start
				return err
			})
			_ = sys.Register("sink", func(ctx *Context) error { return ctx.Put("done", []byte("ok")) })
			producer := sys.fns["producer"]
			for stripe := uint32(0); stripe < obs.NumStripes; stripe++ {
				producer.observe(stripe, 10*ms, 10*ms)
			}
			got := throttled(t, sys, clk, blocked, "Put toward the "+tc.name+" consumer")
			if got != want {
				t.Fatalf("Put toward the %s consumer blocked %v, want α·S/Bw = %v", tc.name, got, want)
			}
		})
	}
}

// throttled runs one request of the producer→sink system, whose producer
// puts under Eq. 1 pressure and sends how long its Put took on blocked, and
// returns that. The DLU daemon pacing the chunk parks beside the producer in
// its block and wakes first, at the chunk's wire time; from there settle
// moves the clock only while every run sleeps — the producer in its block,
// the sink in its own sub-microsecond one — so no virtual time passes in the
// producer's run but its own compute, and the block's end is its deadline.
// A Put that was not blocked leaves the daemon alone on the clock.
func throttled(t *testing.T, sys *System, clk *clock.Manual, blocked <-chan time.Duration, what string) time.Duration {
	t.Helper()
	inv, err := sys.Invoke(map[string][]byte{"producer.in": []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	got, returned := time.Duration(0), false
	select {
	case <-clk.Parked(2):
		clk.Step()
	case got = <-blocked:
		returned = true
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: timed out waiting for the producer to block or return", what)
	}
	settle(t, sys, clk)
	if !returned {
		select {
		case got = <-blocked:
		default:
			t.Fatalf("%s: Put still blocked once the request settled", what)
		}
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	return got
}
