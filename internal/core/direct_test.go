package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/workflow"
)

// These tests pin the direct edge (landBatch's early arm): which items skip
// the Wait-Match Memory, that every other edge lands in it exactly as
// before, and the two rules that ride along — the instance cap without
// channel traffic and the cold start an Invoke caller never sleeps out.

// sinkPuts is the merged put count of every node's sink.
func sinkPuts(sys *System) int64 { return sys.SinkStats().Puts }

// TestDirectEdgeSkipsSink: on the warm chain b waits for a's one item and is
// a's continuation, so the item is handed over without a put, a key or a
// fetch — and the request still drains clean with the right output.
func TestDirectEdgeSkipsSink(t *testing.T) {
	sys := virtualChain(t, 2)
	warmChain(t, sys, 2)
	const requests = 200
	payload := bytes.Repeat([]byte("d"), 64)
	puts0, direct0 := sinkPuts(sys), obsDirectEdges.Load()
	_, conts0 := pathCounts()
	for i := 0; i < requests; i++ {
		inv, err := sys.Invoke(map[string][]byte{"a.in": payload})
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		if out, _ := inv.OutputBytes("out"); !bytes.Equal(out, payload) {
			t.Fatalf("request %d: out = %q", i, out)
		}
	}
	_, conts := pathCounts()
	if puts, direct := sinkPuts(sys)-puts0, obsDirectEdges.Load()-direct0; puts != 0 || direct != requests || conts-conts0 != requests {
		t.Fatalf("%d warm requests: %d sink puts, %d direct edges, %d continuations, want 0, %d and %d",
			requests, puts, direct, conts-conts0, requests, requests)
	}
	requireSinksDrained(t, sys)
}

// dslSystem builds dsl over nodes workers sharing the engine's clock
// (virtual unless cfgMut says otherwise, with Eq. 1 off like virtualChain:
// nothing sleeps on it, so nothing needs to step it).
func dslSystem(t *testing.T, dsl string, nodes int, cfgMut func(*Config)) *System {
	t.Helper()
	wf, err := workflow.ParseDSLString(dsl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workflow:        wf,
		DefaultSpec:     cluster.Spec{MemoryMB: 10 * 1024},
		DisablePressure: true,
		Clock:           clock.NewManual(),
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	cfg.Cluster = cluster.NewCluster(nil)
	for i := 1; i <= nodes; i++ {
		_ = cfg.Cluster.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{Clock: cfg.Clock}))
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	return sys
}

// relay registers fn as a handler that forwards its input in to each of outs.
func relay(sys *System, fn, in string, outs ...string) {
	_ = sys.Register(fn, func(ctx *Context) error {
		v, err := ctx.Input(in)
		if err != nil {
			return err
		}
		for _, out := range outs {
			if err := ctx.Put(out, v); err != nil {
				return err
			}
		}
		return nil
	})
}

// join registers fn as a handler that concatenates its LIST input in.
func join(sys *System, fn, in, out string) {
	_ = sys.Register(fn, func(ctx *Context) error {
		parts, err := ctx.InputList(in)
		if err != nil {
			return err
		}
		return ctx.Put(out, bytes.Join(parts, nil))
	})
}

// TestDirectEdgeFallsBack: every edge the direct rule does not cover lands
// in the Wait-Match Memory item for item, and counts no direct edge.
func TestDirectEdgeFallsBack(t *testing.T) {
	wallChain := func(t *testing.T, mut func(*Config)) *System {
		sys := newChainSystem(t, 2, nil, func(c *Config) {
			c.DisablePressure = true
			if mut != nil {
				mut(c)
			}
		})
		t.Cleanup(sys.Shutdown)
		return sys
	}
	rows := []struct {
		name  string
		build func(t *testing.T) *System
		input map[string][]byte // chainIn when nil
		out   string            // the expected "out" item; the input's payload when empty
		puts  int64             // sink-bound items per request
		after func(*System)     // runs after every request
	}{
		{name: "producer not brief", puts: 1, build: func(t *testing.T) *System {
			clk := clock.NewManual()
			sys := wallChain(t, func(c *Config) { c.Clock = clk })
			_ = sys.Register("a", func(ctx *Context) error {
				clk.Advance(5 * time.Millisecond) // a's compute, in virtual time
				in, _ := ctx.Input("in")
				return ctx.Put("x", in)
			})
			return sys
		}},
		{name: "two inputs", puts: 1, out: "xk",
			input: map[string][]byte{"a.in": []byte("x"), "b.k": []byte("k")},
			build: func(t *testing.T) *System {
				sys := dslSystem(t, `
workflow two
function a
  input in from $USER
  output x to b.x
function b
  input x
  input k from $USER
  output out to $USER
`, 2, nil)
				relay(sys, "a", "in", "x")
				_ = sys.Register("b", func(ctx *Context) error {
					x, _ := ctx.Input("x")
					k, _ := ctx.Input("k")
					return ctx.Put("out", append(append([]byte(nil), x...), k...))
				})
				return sys
			}},
		{name: "FOREACH-fanned consumer", puts: 1, build: func(t *testing.T) *System {
			sys := dslSystem(t, `
workflow fanned
function a
  input in from $USER
  output parts type FOREACH to b.part
function b
  input part
  output out to $USER
`, 2, nil)
			_ = sys.Register("a", func(ctx *Context) error {
				in, _ := ctx.Input("in")
				return ctx.PutForeach("parts", [][]byte{in})
			})
			relay(sys, "b", "part", "out")
			return sys
		}},
		{name: "LIST input", puts: 1, build: func(t *testing.T) *System {
			sys := dslSystem(t, `
workflow list
function a
  input in from $USER
  output x type MERGE to b.xs
function b
  input xs type LIST
  output out to $USER
`, 2, nil)
			relay(sys, "a", "in", "x")
			join(sys, "b", "xs", "out")
			return sys
		}},
		// Validate refuses a NORMAL input fed by two outputs, so two producers
		// meet only in a LIST; workflow's TestPlanResolvesTheGraph pins the
		// in-degree itself. One node: a's two items share an edge.
		{name: "two producers into one input", puts: 4, out: "xx", build: func(t *testing.T) *System {
			sys := dslSystem(t, `
workflow meet
function a
  input in from $USER
  output x to p.x, q.x
function p
  input x
  output r type MERGE to j.rs
function q
  input x
  output r type MERGE to j.rs
function j
  input rs type LIST
  output out to $USER
`, 1, nil)
			relay(sys, "a", "in", "x")
			relay(sys, "p", "x", "r")
			relay(sys, "q", "x", "r")
			join(sys, "j", "rs", "out")
			return sys
		}},
		{name: "64 KiB payload", puts: 1, input: map[string][]byte{"a.in": make([]byte, 64<<10)},
			build: func(t *testing.T) *System { return wallChain(t, nil) }},
		{name: "injector installed", puts: 1, build: func(t *testing.T) *System {
			sys := virtualChain(t, 2)
			sys.SetTransferFailureInjector(func(string) int64 { return -1 })
			return sys
		}},
		// Every node Down when a ships: b's fresh pin limps on its dead
		// primary, so the land re-lands (twice, nothing is routable) and then
		// puts there — a re-land is never direct.
		{name: "fault-tolerant, destination Down", puts: 1,
			build: func(t *testing.T) *System {
				sys := newChainSystem(t, 2, nil, func(c *Config) {
					c.FaultTolerant = true
					c.DisablePressure = true
					c.Clock = clock.NewManual()
				})
				t.Cleanup(sys.Shutdown)
				warmChain(t, sys, 2)
				direct0 := obsDirectEdges.Load()
				invokeChain(t, sys)
				if direct := obsDirectEdges.Load() - direct0; direct != 1 {
					t.Fatalf("healthy fault-tolerant chain: %d direct edges, want 1", direct)
				}
				_ = sys.Register("a", func(ctx *Context) error {
					_ = sys.cfg.Cluster.FailNode("w1")
					_ = sys.cfg.Cluster.FailNode("w2")
					in, _ := ctx.Input("in")
					return ctx.Put("x", in)
				})
				return sys
			},
			after: func(sys *System) {
				_ = sys.cfg.Cluster.RecoverNode("w1")
				_ = sys.cfg.Cluster.RecoverNode("w2")
			}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			sys := row.build(t)
			in := row.input
			if in == nil {
				in = chainIn
			}
			want := row.out
			if want == "" {
				for _, v := range in {
					want = string(v)
				}
			}
			run := func() {
				t.Helper()
				inv, err := sys.Invoke(in)
				if err != nil {
					t.Fatal(err)
				}
				if err := inv.Wait(); err != nil {
					t.Fatal(err)
				}
				if out, _ := inv.OutputBytes("out"); string(out) != want {
					t.Fatalf("out = %d bytes, want %d", len(out), len(want))
				}
				if row.after != nil {
					row.after(sys)
				}
			}
			for i := 0; i < 3; i++ { // sample every function: only the rule under test keeps the edge in the sink
				run()
			}
			settle(t, sys, nil) // every warm-up run observed
			const requests = 10
			puts0, direct0 := sinkPuts(sys), obsDirectEdges.Load()
			for i := 0; i < requests; i++ {
				run()
			}
			if puts, direct := sinkPuts(sys)-puts0, obsDirectEdges.Load()-direct0; puts != row.puts*requests || direct != 0 {
				t.Fatalf("%d requests: %d sink puts and %d direct edges, want %d and 0", requests, puts, direct, row.puts*requests)
			}
			requireSinksDrained(t, sys)
		})
	}
}

// TestDirectEdgeStormVsFailNodeVsShutdown is the run-to-completion storm
// (TestInlineShipStormVsShutdownVsFailNode) over a chain whose one edge is
// direct: fault-tolerant, two replicas per function, two nodes flapping,
// T_FLU zero on a frozen clock. Phase one completes every request and must
// leave nothing tracked and no sink byte; phase two shuts down under load
// and every goroutine must exit. Run with -race in CI.
func TestDirectEdgeStormVsFailNodeVsShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test")
	}
	clock.NewWall().Sleep(time.Microsecond) // start the process-wide parker before the baseline
	baseline := runtime.NumGoroutine()
	sys := newChainSystem(t, 4, cluster.RoundRobin{Replicas: 2}, func(c *Config) {
		c.FaultTolerant = true
		c.DisablePressure = true
		c.Clock = frozenClock{clock.NewManual()}
	})
	cl := sys.cfg.Cluster

	stopChaos := flapNodes(cl, time.Millisecond, false)

	direct0 := obsDirectEdges.Load()
	const goroutines, perG = 8, 400
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				in := fmt.Sprintf("g%d-%d", g, i)
				inv, err := sys.Invoke(map[string][]byte{"a.in": []byte(in)})
				if err != nil {
					errs[g] = err
					return
				}
				if err := inv.Wait(); err != nil {
					errs[g] = fmt.Errorf("req %s: %w", in, err)
					return
				}
				if out, _ := inv.OutputBytes("out"); string(out) != in {
					errs[g] = fmt.Errorf("req %s: out %q", in, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	direct := obsDirectEdges.Load() - direct0
	if direct == 0 {
		t.Fatal("the storm took no direct edge: it did not exercise the path")
	}
	t.Logf("phase 1: %d requests, %d direct edges, %d replays", goroutines*perG, direct, sys.Replays())
	// The flapping goes on: a node recovering from Down is wiped again, and
	// nothing this phase shipped is still in flight.
	requireSinksDrained(t, sys)
	if n := sys.PendingInvocations(); n != 0 {
		t.Fatalf("%d invocations still tracked", n)
	}

	invs := stormUntilShutdown(sys, 256, func(g, i int) map[string][]byte {
		return map[string][]byte{"a.in": []byte(fmt.Sprintf("s%d-%d", g, i))}
	})
	stopChaos()
	t.Logf("phase 2: %d/%d requests completed before shutdown", len(completedOf(invs)), len(invs))
	until(t, func() bool { return runtime.NumGoroutine() <= baseline },
		fmt.Sprintf("goroutines did not return to the baseline of %d", baseline))
}

// TestInstanceCapBoundsRunningInstances: three times the cap of handlers
// held at a barrier never run more than the cap at once, all of them finish,
// and Shutdown leaves no goroutine parked on the cap.
func TestInstanceCapBoundsRunningInstances(t *testing.T) {
	clock.NewWall().Sleep(time.Microsecond) // start the process-wide parker before the baseline
	baseline := runtime.NumGoroutine()
	const limit = 4
	sys := newChainSystem(t, 2, nil, func(c *Config) {
		c.DisablePressure = true
		c.MaxContainersPerFn = limit
	})
	var running, peak atomic.Int64
	barrier := make(chan struct{})
	_ = sys.Register("a", func(ctx *Context) error {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-barrier
		running.Add(-1)
		in, _ := ctx.Input("in")
		return ctx.Put("x", in)
	})
	invs := make([]*Invocation, 3*limit)
	for i := range invs {
		invs[i] = invokeReturns(t, sys, chainIn) // a is unsampled: every instance is the pool's
	}
	st := sys.fns["a"]
	until(t, func() bool { return running.Load() == limit && st.cap.load() == 3*limit },
		"the cap never filled with the rest counted as waiting")
	for i := 0; i < 2*limit; i++ {
		barrier <- struct{}{} // one out, one waiter in
		until(t, func() bool { return running.Load() == limit }, "a released slot was not handed to a waiter")
	}
	close(barrier)
	for _, inv := range invs {
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p != limit {
		t.Fatalf("%d instances of a ran at once under a cap of %d", p, limit)
	}
	if n := st.cap.load(); n != 0 {
		t.Fatalf("cap count reads %d after every instance finished", n)
	}
	sys.Shutdown()
	until(t, func() bool { return runtime.NumGoroutine() <= baseline },
		fmt.Sprintf("goroutines did not return to the baseline of %d", baseline))
}

// TestCallerDoesNotSleepOutAColdStart: a is brief, its only container is
// busy and a new one takes 50 ms to start — on a clock only the test moves.
// Invoke hands the instance to the pool and returns with the clock where it
// was; the request completes once the test lets the cold start finish.
func TestCallerDoesNotSleepOutAColdStart(t *testing.T) {
	const coldStart = 50 * time.Millisecond
	clk := clock.NewManual()
	wf, err := workflow.ParseDSLString(chainDSL)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for _, name := range []string{"w1", "w2"} {
		_ = cl.AddNode(cluster.NewNode(name, cluster.Options{Clock: clk, ColdStart: coldStart}))
	}
	sys, err := NewSystem(Config{
		Workflow:        wf,
		Cluster:         cl,
		DefaultSpec:     cluster.Spec{MemoryMB: 10 * 1024},
		DisablePressure: true,
		Clock:           clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	var hold atomic.Bool
	entered, gate := make(chan struct{}), make(chan struct{})
	_ = sys.Register("a", func(ctx *Context) error {
		if hold.CompareAndSwap(true, false) {
			close(entered)
			<-gate
		}
		in, _ := ctx.Input("in")
		return ctx.Put("x", in)
	})
	relay(sys, "b", "x", "out")
	a, b := sys.fns["a"], sys.fns["b"]
	for i := 0; i < 2; i++ { // one container each, both functions sampled at zero
		inv := invokeReturns(t, sys, chainIn)
		settle(t, sys, clk) // steps each cold start
		if err := inv.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if !a.brief() || !b.brief() {
		t.Fatalf("brief(a) = %v, brief(b) = %v after two runs of no virtual time", a.brief(), b.brief())
	}

	hold.Store(true)
	held := make(chan *Invocation, 1)
	go func() {
		inv, _ := sys.Invoke(chainIn) // runs a on this goroutine, in a's one container, until the gate opens
		held <- inv
	}()
	waitClosed(t, entered, "the holder's a to start")

	before, runs0 := clk.Now(), obsCallerRuns.Load()
	inv := invokeReturns(t, sys, chainIn)
	if now := clk.Now(); now != before {
		t.Fatalf("the clock moved %v inside Invoke", now-before)
	}
	select {
	case <-inv.Done():
		t.Fatal("the request completed although a's cold start is still asleep")
	default:
	}
	if runs := obsCallerRuns.Load() - runs0; runs != 0 {
		t.Fatalf("%d instances ran on the Invoke caller, want none: a had no container", runs)
	}
	// The holder keeps its request open, so the clock moves by hand: the
	// pool's cold start of a is the one sleeper.
	waitClosed(t, clk.Parked(1), "the pool's cold start of a")
	clk.Step()
	waitClosed(t, inv.Done(), "the request to complete")
	if err := inv.Err(); err != nil {
		t.Fatal(err)
	}
	if out, _ := inv.OutputBytes("out"); string(out) != "x" {
		t.Fatalf("out = %q", out)
	}
	// The request is done once b's answer lands, before b's container is
	// back: the holder's b must find it there, or it cold-starts on a clock
	// nobody moves any more.
	until(t, b.idle, "b's container never came back")
	close(gate)
	if inv := <-held; inv != nil {
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}
