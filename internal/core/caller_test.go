package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/workflow"
)

// These tests pin the contract of an Invoke that runs a brief entry chain
// on its caller: what it may run there, what it must hand to the executor
// pool, and that it never sits behind anything only its caller can release.

var chainIn = map[string][]byte{"a.in": []byte("x")}

// invokeReturns calls Invoke on a goroutine of its own and fails the test if
// the call does not come back: an Invoke stuck there is running a handler,
// or sleeping a throttle, that only the test can release.
func invokeReturns(t *testing.T, sys *System, in map[string][]byte) *Invocation {
	t.Helper()
	type result struct {
		inv *Invocation
		err error
	}
	ch := make(chan result, 1)
	go func() {
		inv, err := sys.Invoke(in)
		ch <- result{inv, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.inv
	case <-time.After(10 * time.Second):
		t.Fatal("Invoke did not return: it is running on its caller something that may block")
		return nil
	}
}

// warmChain runs n requests one at a time, each settled: the clock reads of
// one request never fall inside a run of the next, and the next Invoke reads
// settled means. Nothing sleeps on the clocks it is used with.
func warmChain(t *testing.T, sys *System, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		invokeChain(t, sys)
		settle(t, sys, nil)
	}
}

// gateA re-registers a as a handler that parks until the returned channel is
// closed — the stand-in for anything a caller must never wait for.
func gateA(sys *System) chan struct{} {
	gate := make(chan struct{})
	_ = sys.Register("a", func(ctx *Context) error {
		<-gate
		in, _ := ctx.Input("in")
		return ctx.Put("x", in)
	})
	return gate
}

func TestInvokeNeverRunsWhatMayBlock(t *testing.T) {
	// released runs Invoke against a parked a, and only then lets a go.
	released := func(t *testing.T, sys *System) {
		t.Helper()
		gate := gateA(sys)
		runs0 := obsCallerRuns.Load()
		inv := invokeReturns(t, sys, chainIn)
		close(gate)
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		if runs := obsCallerRuns.Load() - runs0; runs != 0 {
			t.Fatalf("%d instances ran on the Invoke caller, want none", runs)
		}
	}
	t.Run("never sampled", func(t *testing.T) {
		released(t, virtualChain(t, 2))
	})
	t.Run("mean at the gate", func(t *testing.T) {
		// Every run of a takes exactly the gate on the virtual clock: the
		// predicate is "under", so a is not brief.
		clk := clock.NewManual()
		sys := newChainSystem(t, 2, nil, func(c *Config) {
			c.DisablePressure = true
			c.Clock = clk
		})
		t.Cleanup(sys.Shutdown)
		_ = sys.Register("a", func(ctx *Context) error {
			clk.Advance(continuationMaxTFLU)
			in, _ := ctx.Input("in")
			return ctx.Put("x", in)
		})
		warmChain(t, sys, 3)
		if got := sys.FLUAvg("a"); got != continuationMaxTFLU {
			t.Fatalf("T_FLU(a) = %v, want %v", got, continuationMaxTFLU)
		}
		released(t, sys)
	})
	t.Run("pressure-blocked", func(t *testing.T) {
		// The producer computes nothing — T_FLU reads zero — and its Put
		// sleeps Eq. 1's block on a clock only this test advances.
		clk := clock.NewManual()
		sys := newPressureSystem(t, clk, 2.0, nil)
		payload := make([]byte, 64<<10)
		_ = sys.Register("producer", func(ctx *Context) error { return ctx.Put("big", payload) })
		_ = sys.Register("sink", func(ctx *Context) error { return ctx.Put("done", []byte("ok")) })
		in := map[string][]byte{"producer.in": []byte("x")}
		// throttled's protocol: the daemon pacing the chunk wakes first, and
		// from there the clock moves only while every run sleeps — the
		// producer in its block, the sink in its own — so no time passes
		// while the producer is outside its block.
		run := func() {
			invokeReturns(t, sys, in)
			waitClosed(t, clk.Parked(2), "the producer to block beside the daemon pacing its chunk")
			clk.Step()
			settle(t, sys, clk)
		}
		run()
		if got := sys.FLUAvg("producer"); got != 0 {
			t.Fatalf("T_FLU(producer) = %v, want 0: the block is not compute", got)
		}
		runs0 := obsCallerRuns.Load()
		run()
		if runs := obsCallerRuns.Load() - runs0; runs != 0 {
			t.Fatalf("%d instances ran on the Invoke caller, want none", runs)
		}
	})
}

// TestBriefChainCompletesInsideInvoke: once a and b have been seen to take
// no time, the whole request runs on the goroutine that called Invoke — no
// executor submission, and Done already closed when Invoke returns.
func TestBriefChainCompletesInsideInvoke(t *testing.T) {
	sys := virtualChain(t, 2)
	warmChain(t, sys, 2)
	var ga, gb uint64
	_ = sys.Register("a", func(ctx *Context) error {
		ga = goid()
		in, _ := ctx.Input("in")
		return ctx.Put("x", in)
	})
	_ = sys.Register("b", func(ctx *Context) error {
		gb = goid()
		x, _ := ctx.Input("x")
		return ctx.Put("out", x)
	})
	for i := 0; i < 10; i++ {
		runs0 := obsCallerRuns.Load()
		inv, err := sys.Invoke(chainIn)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-inv.Done():
		default:
			t.Fatal("Invoke returned before its brief chain completed")
		}
		if err := inv.Err(); err != nil {
			t.Fatal(err)
		}
		if out, _ := inv.OutputBytes("out"); string(out) != "x" {
			t.Fatalf("out = %q", out)
		}
		if runs, me := obsCallerRuns.Load()-runs0, goid(); runs != 2 || ga != me || gb != me {
			t.Fatalf("%d caller runs, a on goroutine %d and b on %d, want 2 and both on the caller's %d", runs, ga, gb, me)
		}
	}
}

// TestCallerHandsNonBriefConsumerToPool: a brief a feeding a b whose runs
// average over a millisecond. The caller runs a, the ship parks b for it as a
// continuation, and the caller hands b to the executor pool instead of
// running it — Invoke is back while b is still parked, and no continuation
// is counted.
func TestCallerHandsNonBriefConsumerToPool(t *testing.T) {
	sys := virtualChain(t, 2)
	warmChain(t, sys, 3)
	sys.fns["b"].observe(0, 5*time.Millisecond, 0) // one slow run: b's mean is 1.25 ms
	gate := make(chan struct{})
	var gb atomic.Uint64
	_ = sys.Register("b", func(ctx *Context) error {
		gb.Store(goid())
		<-gate
		x, _ := ctx.Input("x")
		return ctx.Put("out", x)
	})
	runs0 := obsCallerRuns.Load()
	_, conts0 := pathCounts()
	inv, err := sys.Invoke(chainIn) // on this goroutine: b must not be
	if err != nil {
		t.Fatal(err)
	}
	until(t, func() bool { return gb.Load() != 0 }, "b never started")
	if gb.Load() == goid() {
		t.Fatal("b ran on the Invoke caller")
	}
	select {
	case <-inv.Done():
		t.Fatal("the request completed although b is parked")
	default:
	}
	close(gate)
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	_, conts := pathCounts()
	if runs := obsCallerRuns.Load() - runs0; runs != 1 || conts-conts0 != 0 {
		t.Fatalf("%d caller runs and %d continuations, want 1 (a) and 0 (b, parked, ran on the pool)", runs, conts-conts0)
	}
}

// TestHandlerInvokesWhileShutdownPends is why Invoke drops its admission
// read lock before it runs anything: a handler running on the caller that
// calls Invoke itself, with a Shutdown waiting for the write lock, would
// otherwise wait behind that writer, which waits for the caller.
func TestHandlerInvokesWhileShutdownPends(t *testing.T) {
	sys := virtualChain(t, 2)
	warmChain(t, sys, 2)
	var outer atomic.Bool
	entered, proceed := make(chan struct{}), make(chan struct{})
	nested := make(chan error, 1)
	_ = sys.Register("a", func(ctx *Context) error {
		if outer.CompareAndSwap(false, true) {
			close(entered)
			<-proceed
			_, err := sys.Invoke(chainIn)
			nested <- err
		}
		in, _ := ctx.Input("in")
		return ctx.Put("x", in)
	})
	go sys.Invoke(chainIn) //nolint:errcheck // abandoned by the shutdown below
	waitClosed(t, entered, "the handler to start")
	down := make(chan struct{})
	go func() {
		defer close(down)
		sys.Shutdown()
	}()
	// Shutdown has closed the admission gate, and waits for the chain.
	until(t, sys.gate.closed.Load, "Shutdown never reached the admission gate")
	close(proceed)
	select {
	case err := <-nested:
		if err == nil {
			t.Fatal("the nested Invoke was admitted after Shutdown")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the nested Invoke deadlocked against the pending Shutdown")
	}
	waitClosed(t, down, "Shutdown to return")
}

// TestPrewarmProbeDoesNotTouchTheIdleContainer: a pressure notification that
// finds a container idle must leave it alone — idle, in its pool — and start
// nothing.
func TestPrewarmProbeDoesNotTouchTheIdleContainer(t *testing.T) {
	sys := virtualChain(t, 2)
	var ctr atomic.Pointer[cluster.Container]
	_ = sys.Register("a", func(ctx *Context) error {
		ctr.Store(ctx.ctr)
		in, _ := ctx.Input("in")
		return ctx.Put("x", in)
	})
	warmChain(t, sys, 1) // a's container is back in its pool
	c := ctr.Load()
	colds := obs.Default().Snapshot().Counters["cluster_cold_starts_total"]
	sys.prewarm(sys.fns["a"], c)
	if c.PoolExhausted(2) {
		t.Fatal("the probe took the idle container")
	}
	pool := c.Node.Pool("a")
	got, ok := pool.Acquire(0)
	if !ok || got != c {
		t.Fatal("the pool no longer holds the container the request ran on")
	}
	pool.Release(got, 0)
	if got := obs.Default().Snapshot().Counters["cluster_cold_starts_total"]; got != colds || c.Node.Containers("a") != 1 {
		t.Fatalf("the probe started a container: %d cold starts, %d containers of a", got-colds, c.Node.Containers("a"))
	}
}

// countingClock counts the readings taken of a virtual clock.
type countingClock struct {
	*clock.Manual
	reads atomic.Int64
}

func (c *countingClock) Now() time.Duration {
	c.reads.Add(1)
	return c.Manual.Now()
}

// TestWarmRequestSharesItsClockReadings pins how often a warm caller-run
// a → b request reads the clock, engine and nodes counted together: Invoke's
// start, which is also a's, a's end, which is also b's start, the request's
// end and b's end — four where there were eight. a's TC class prices the one
// cross-node byte at a's starting reading, and teardown's no-sweep exit reads
// none. The readings it shares still measure the right stretch: a computes
// 10 µs of virtual time and b none, and T_FLU says so exactly.
func TestWarmRequestSharesItsClockReadings(t *testing.T) {
	const compute = 10 * time.Microsecond
	clk := &countingClock{Manual: clock.NewManual()}
	sys := newChainSystem(t, 2, nil, func(c *Config) {
		c.DisablePressure = true
		c.Clock = clk
	})
	t.Cleanup(sys.Shutdown)
	_ = sys.Register("a", func(ctx *Context) error {
		clk.Advance(compute)
		in, _ := ctx.Input("in")
		return ctx.Put("x", in)
	})
	warmChain(t, sys, 3)
	a, b := sys.fns["a"], sys.fns["b"]
	for i := 0; i < 20; i++ {
		runs0, reads0, na, nb := obsCallerRuns.Load(), clk.reads.Load(), a.fluNanos.Load(), b.fluNanos.Load()
		inv, err := sys.Invoke(chainIn)
		if err != nil {
			t.Fatal(err)
		}
		reads := clk.reads.Load() - reads0
		select {
		case <-inv.Done():
		default:
			t.Fatal("the warm chain did not complete inside Invoke")
		}
		if runs := obsCallerRuns.Load() - runs0; runs != 2 {
			t.Fatalf("%d caller runs, want 2: not the warm path", runs)
		}
		if reads != 4 {
			t.Fatalf("request %d read the clock %d times, want 4", i, reads)
		}
		if da, db := a.fluNanos.Load()-na, b.fluNanos.Load()-nb; da != int64(compute) || db != 0 {
			t.Fatalf("T_FLU sums moved by %v for a and %v for b, want %v and 0", time.Duration(da), time.Duration(db), compute)
		}
		if got := inv.Latency(); got != compute {
			t.Fatalf("latency %v, want %v", got, compute)
		}
	}
}

// TestCarriedReadingIsDroppedAtAWait: a continuation starts at its producer's
// end reading only if nothing can have slept in between. Each row parks b, as
// a's continuation, behind something only the test releases — a cold start or
// a full instance cap — moves the clock 5 ms meanwhile, and
// requires that b, which computes nothing, still measures T_FLU = 0.
func TestCarriedReadingIsDroppedAtAWait(t *testing.T) {
	const wait = 5 * time.Millisecond
	// unwaited checks the one run of b the row made, once it is observed.
	unwaited := func(t *testing.T, sys *System, inv *Invocation) {
		t.Helper()
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		settle(t, sys, nil)
		b := sys.fns["b"]
		if got := b.fluNanos.Load(); got != 0 {
			t.Fatalf("b's T_FLU sum reads %v after a run that only waited: the wait was measured as compute", time.Duration(got))
		}
	}

	t.Run("cold start", func(t *testing.T) {
		clk := clock.NewManual()
		wf, err := workflow.ParseDSLString(chainDSL)
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster.NewCluster(nil)
		for _, name := range []string{"w1", "w2"} {
			_ = cl.AddNode(cluster.NewNode(name, cluster.Options{Clock: clk, ColdStart: wait}))
		}
		sys, err := NewSystem(Config{Workflow: wf, Cluster: cl, DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024}, DisablePressure: true, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown()
		relay(sys, "a", "in", "x")
		relay(sys, "b", "x", "out")
		a, b := sys.fns["a"], sys.fns["b"]
		for i := 0; i < 2; i++ { // settle steps each cold start
			invokeReturns(t, sys, chainIn)
			settle(t, sys, clk)
		}
		// a keeps T_FLU = 0, so its consumer continues on its goroutine, but
		// is no longer brief: a pool worker runs the chain, and may cold-start.
		a.observe(0, 10*time.Millisecond, 10*time.Millisecond)
		node := b.primary()
		held, ok := b.pools[0].Acquire(0) // the primary's pool
		if !ok {
			t.Fatal("b has no idle container after the warm-up")
		}
		conts0 := obsContinuations.Load()
		inv := invokeReturns(t, sys, chainIn)
		waitClosed(t, clk.Parked(1), "b's cold start")
		clk.Advance(wait)
		node.Release(held)
		unwaited(t, sys, inv)
		if obsContinuations.Load() == conts0 {
			t.Fatal("b was not a's continuation: the row tested nothing")
		}
	})

	t.Run("instance cap", func(t *testing.T) {
		clk := clock.NewManual()
		sys := newChainSystem(t, 2, nil, func(c *Config) {
			c.DisablePressure = true
			c.Clock = clk
			c.MaxContainersPerFn = 1
		})
		t.Cleanup(sys.Shutdown)
		warmChain(t, sys, 3)
		b := sys.fns["b"]
		b.cap.acquire(0) // the test holds b's one slot
		done := make(chan *Invocation, 1)
		go func() {
			inv, _ := sys.Invoke(chainIn) // runs a, then parks at b's cap on this goroutine
			done <- inv
		}()
		until(t, func() bool { return b.cap.load() == 2 }, "b never parked at its cap")
		clk.Advance(wait)
		b.cap.release(0)
		unwaited(t, sys, <-done)
	})
}
