package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/workflow"
)

// These tests pin run to completion (Context.put's inline ship and the
// continuation scheduleReady parks in the producer's Context): which Puts
// take it, which fall back to the DLU daemon and the executor pool, and that
// the fallbacks keep their ordering and shutdown guarantees.

// pathCounts reads the two path counters; tests compare deltas, the series
// being process-wide.
func pathCounts() (ships, conts int64) {
	return obsInlineShips.Load(), obsContinuations.Load()
}

// goid returns the running goroutine's id, parsed from its stack header.
func goid() uint64 {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)]) // "goroutine 12 [running]:"
	id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
	return id
}

// virtualChain is newChainSystem with engine and nodes on one virtual clock
// nobody advances and Eq. 1 off: T_FLU then reads exactly zero, sampled from
// the second run on, so which path an edge takes is decided by the engine's
// rules alone and not by how fast the box runs a handler. Nothing sleeps on
// the clock — no block, no cold start, no park — so a test settles it with a
// nil clock.
func virtualChain(t *testing.T, nodes int) *System {
	t.Helper()
	sys := newChainSystem(t, nodes, nil, func(c *Config) {
		c.DisablePressure = true
		c.Clock = clock.NewManual()
	})
	t.Cleanup(sys.Shutdown)
	return sys
}

func invokeChain(t *testing.T, sys *System) {
	t.Helper()
	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestInputNameMatchesByPointer: a handler's input is matched by the string
// the handler first named it with, learned while requests run concurrently,
// and a name with the same bytes in other storage, or a name that is no
// input, still resolves as by bytes.
func TestInputNameMatchesByPointer(t *testing.T) {
	sys := newChainSystem(t, 1, nil, nil)
	t.Cleanup(sys.Shutdown)
	first, other := strings.Clone("x"), strings.Clone("x")
	_ = sys.Register("a", func(ctx *Context) error { return ctx.Put("x", []byte("v")) })
	_ = sys.Register("b", func(ctx *Context) error {
		v1, err1 := ctx.Input(first)
		v2, err2 := ctx.Input(other)
		_, err3 := ctx.InputList("y")
		if err1 != nil || err2 != nil || string(v1) != "v" || string(v2) != "v" || err3 == nil {
			return fmt.Errorf("inputs %q %v, %q %v, unknown input %v", v1, err1, v2, err2, err3)
		}
		return ctx.Put("out", v1)
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				inv, err := sys.Invoke(chainIn)
				if err == nil {
					err = inv.Wait()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := sys.fns["b"].said[0].Load(); p == nil || unsafe.StringData(*p) != unsafe.StringData(first) {
		t.Fatal("b's input is not kept under the string b first named it with")
	}
}

// TestWarmChainCountsItsPaths pins the three series a running system answers
// "which path do my edges take" with: on the zero-compute chain every Put
// ships inline (two per request) and, once the functions have a sample,
// every consumer is a continuation (one per request) and both instances run
// on the Invoke caller; a producer with trailing compute never continues
// into its consumer.
func TestWarmChainCountsItsPaths(t *testing.T) {
	sys := virtualChain(t, 2)
	batches := obsBatchItems.Snapshot().Count
	ships0, conts0 := pathCounts()
	runs0 := obsCallerRuns.Load()
	warmChain(t, sys, 1) // request 1: no sample yet, both instances wake through the pool
	if ships, conts := pathCounts(); ships-ships0 != 2 || conts != conts0 || obsCallerRuns.Load() != runs0 {
		t.Fatalf("request 1: %d inline ships, %d continuations and %d caller runs, want 2, 0 and 0",
			ships-ships0, conts-conts0, obsCallerRuns.Load()-runs0)
	}
	const requests = 50
	ships0, conts0 = pathCounts()
	for i := 0; i < requests; i++ {
		invokeChain(t, sys)
	}
	ships, conts := pathCounts()
	if runs := obsCallerRuns.Load() - runs0; ships-ships0 != 2*requests || conts-conts0 != requests || runs != 2*requests {
		t.Fatalf("%d warm requests: %d inline ships, %d continuations and %d caller runs, want %d, %d and %d",
			requests, ships-ships0, conts-conts0, runs, 2*requests, requests, 2*requests)
	}
	// An inline ship is still a shipment: a batch of its one task.
	if got := obsBatchItems.Snapshot().Count - batches; got != 2*(requests+1) {
		t.Fatalf("core_dlu_batch_items observed %d batches, want %d", got, 2*(requests+1))
	}

	// Trailing compute: a millisecond of virtual time after the Put, so a's
	// T_FLU reads exactly that.
	clk := clock.NewManual()
	slow := newChainSystem(t, 2, nil, func(c *Config) {
		c.DisablePressure = true
		c.Clock = clk
	})
	defer slow.Shutdown()
	_ = slow.Register("a", func(ctx *Context) error {
		in, _ := ctx.Input("in")
		if err := ctx.Put("x", in); err != nil {
			return err
		}
		clk.Advance(time.Millisecond)
		return nil
	})
	// A request completes during a's trailing compute: settle, so that a's
	// run is observed and the gate and not the missing sample is what decides.
	invokeChain(t, slow)
	settle(t, slow, nil)
	_, conts0 = pathCounts()
	for i := 0; i < 20; i++ {
		invokeChain(t, slow)
	}
	if _, conts := pathCounts(); conts != conts0 {
		t.Fatalf("trailing-compute producer (T_FLU %v): %d continuations, want none", slow.FLUAvg("a"), conts-conts0)
	}
}

// TestWarmZeroComputeChainRunsOnOneGoroutine is the mirror of
// TestEarlyTriggeringBeforePredecessorCompletes, in the default
// configuration on the wall clock: once the producer's measured T_FLU is
// under the gate and its consumer is brief, the consumer runs on the
// producer's goroutine, and only such a run counts as a continuation.
func TestWarmZeroComputeChainRunsOnOneGoroutine(t *testing.T) {
	sys := newChainSystem(t, 2, nil, nil)
	defer sys.Shutdown()
	if continuesOnOneGoroutine(t, sys, 1000) == 0 {
		t.Skipf("T_FLU never came under the gate on this box (a=%v)", sys.FLUAvg("a"))
	}
}

// TestWarmZeroComputeChainOnManualClock is the same check on clock.Manual,
// where every T_FLU and wall reading is 0: every checked request continues,
// so the one-goroutine assertion runs on each and the test never skips.
func TestWarmZeroComputeChainOnManualClock(t *testing.T) {
	sys := virtualChain(t, 2)
	if n := continuesOnOneGoroutine(t, sys, 2); n != continuesChecked {
		t.Fatalf("T_FLU %v: %d of %d requests continued, want all", sys.FLUAvg("a"), n, continuesChecked)
	}
}

// continuesChecked is how many requests continuesOnOneGoroutine checks.
const continuesChecked = 20

// continuesOnOneGoroutine runs warm requests of the chain a → b, then
// checks continuesChecked more one at a time: each continues exactly when
// a's published T_FLU and the two brief verdicts say it should, and a
// continued b runs on a's goroutine. It returns how many continued.
func continuesOnOneGoroutine(t *testing.T, sys *System, warm int) int {
	t.Helper()
	// Reading a goroutine's id costs ten microseconds, a good part of the
	// gate, so only the checked requests do it, on top of a warm average.
	var probe bool
	var ga, gb uint64 // requests run one at a time; Wait orders the accesses
	_ = sys.Register("a", func(ctx *Context) error {
		if probe {
			ga = goid()
		}
		in, _ := ctx.Input("in")
		return ctx.Put("x", in)
	})
	_ = sys.Register("b", func(ctx *Context) error {
		if probe {
			gb = goid()
		}
		x, _ := ctx.Input("x")
		return ctx.Put("out", x)
	})
	for i := 0; i < warm; i++ {
		invokeChain(t, sys)
	}
	a, b := sys.fns["a"], sys.fns["b"]
	probe = true
	continued := 0
	for i := 0; i < continuesChecked; i++ {
		// Settled, the last request's runs are over, observed and published,
		// so nothing in flight moves what decides want, and no cold start
		// refuses the caller. Nothing sleeps on either system's clock.
		settle(t, sys, nil)
		// a parks b when a's published T_FLU is under the gate, and b then
		// runs on a's goroutine: on a pool worker's when a is not brief (a
		// limiter park counts in wall time, not in T_FLU), on the caller's
		// only if b is brief too. All are read before the invoke, with no
		// other request in flight to move them. (A box busy enough to push
		// a zero-compute handler over the gate takes the pool, rightly.)
		tflu, sampled := a.tfluPublished()
		briefA, briefB := a.brief(), b.brief()
		want := int64(0)
		if sampled && tflu < continuationMaxTFLU && (!briefA || briefB) {
			want = 1
		}
		_, conts0 := pathCounts()
		invokeChain(t, sys)
		_, conts := pathCounts()
		if conts-conts0 != want || (want == 1 && ga != gb) {
			t.Fatalf("T_FLU %v, brief(a)=%v, brief(b)=%v: %d continuations, a on goroutine %d and b on %d, want %d (and one goroutine if continued)",
				tflu, briefA, briefB, conts-conts0, ga, gb, want)
		}
		continued += int(want)
	}
	return continued
}

// TestForeachContinuesOneInstance: a FOREACH×8 fan-out continues one
// instance on the producer's goroutine and hands seven to the pool — the
// eight still run side by side (they meet at a barrier), none behind another.
func TestForeachContinuesOneInstance(t *testing.T) {
	clk := clock.NewManual() // Eq. 1 off and no cold start: nothing sleeps on it
	wf, err := workflow.ParseDSLString(fanoutDSL)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for i := 1; i <= 3; i++ {
		_ = cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{Clock: clk}))
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
	const fanout = 8
	var arrived sync.WaitGroup
	var all chan struct{}
	_ = sys.Register("split", func(ctx *Context) error {
		parts := make([][]byte, fanout)
		for i := range parts {
			parts[i] = []byte{byte(i)}
		}
		return ctx.PutForeach("parts", parts)
	})
	_ = sys.Register("work", func(ctx *Context) error {
		part, _ := ctx.Input("part")
		arrived.Done()
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("work[%d] is running alone: its siblings wait behind an instance", ctx.Instance.Idx)
		}
		return ctx.Put("out", part)
	})
	_ = sys.Register("join", func(ctx *Context) error {
		parts, _ := ctx.InputList("parts")
		return ctx.Put("result", bytes.Join(parts, nil))
	})
	for req := 1; req <= 3; req++ {
		arrived.Add(fanout)
		all = make(chan struct{})
		go func(all chan struct{}) {
			arrived.Wait()
			close(all)
		}(all)
		_, conts0 := pathCounts()
		inv, err := sys.Invoke(map[string][]byte{"split.src": []byte("s")})
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		// Request 1 samples split and work; from then on split continues
		// into one work instance, and the last work to land into join.
		if _, conts := pathCounts(); req > 1 && conts-conts0 != 2 {
			t.Fatalf("request %d: %d continuations, want 2", req, conts-conts0)
		}
	}
}

// TestSmallPutLandsBehindStreamingPut: per-container FIFO. A small Put
// issued while the daemon still holds the handler's earlier streaming-size
// Put must queue behind it, not ship inline and overtake it.
func TestSmallPutLandsBehindStreamingPut(t *testing.T) {
	wf, err := workflow.ParseDSLString(`
workflow fifo
function producer
  input in from $USER
  output big to sink.x
  output small to tail.y
function sink
  input x
  output done to $USER
function tail
  input y
  output done to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for _, name := range []string{"w1", "w2"} {
		_ = cl.AddNode(cluster.NewNode(name, cluster.Options{}))
	}
	sys, err := NewSystem(Config{
		Workflow:        wf,
		Cluster:         cl,
		DefaultSpec:     cluster.Spec{MemoryMB: 128}, // 5 MB/s: the 64 KiB stream takes 13 ms
		DisablePressure: true,                        // Put(big) returns at once
		Obs:             ObsConfig{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	_ = sys.Register("producer", func(ctx *Context) error {
		if err := ctx.Put("big", make([]byte, 64<<10)); err != nil {
			return err
		}
		return ctx.Put("small", []byte("s"))
	})
	done := func(ctx *Context) error { return ctx.Put("done", []byte("ok")) }
	_ = sys.Register("sink", done)
	_ = sys.Register("tail", done)
	for req := 1; req <= 3; req++ {
		ships0, _ := pathCounts()
		inv, err := sys.Invoke(map[string][]byte{"producer.in": []byte("go")})
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		var order []string
		// x goes only to sink and y only to tail: the destination names the
		// output.
		for _, st := range sys.ring.Stages(inv.ReqID()) {
			if st.Kind == obs.DataArrived && st.Fn != workflow.UserSource {
				order = append(order, st.Fn)
			}
		}
		if len(order) != 2 || order[0] != "sink" || order[1] != "tail" {
			t.Fatalf("request %d: the producer's outputs landed at %v, want [sink tail] (x before y)", req, order)
		}
		// Only the two consumers' own $USER edges shipped inline.
		if ships, _ := pathCounts(); ships-ships0 != 2 {
			t.Fatalf("request %d: %d inline ships, want 2", req, ships-ships0)
		}
	}
}

// TestQueuedTaskOwnsItsItems: a Put routes into its Context's item buffer,
// which the next Put reuses, so a task queued to the DLU daemon must ship a
// copy. The producer's streaming-sized Put queues; the daemon is held in its
// first limiter park until the producer's second, small Put (on another
// output, into the same buffer) has returned. The queued consumer must
// still receive the first payload intact. A daemon task that kept the
// buffer would ship whatever the Context holds by then: the small item, or
// the zeroes its chain's end leaves.
func TestQueuedTaskOwnsItsItems(t *testing.T) {
	wf, err := workflow.ParseDSLString(`
workflow own
function producer
  input in from $USER
  output big to sink.x
  output small to tail.y
function sink
  input x
  output got to $USER
function tail
  input y
  output got to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	secondPut := make(chan struct{})
	var once sync.Once
	clk := hookClock{onSleep: func(time.Duration) {
		once.Do(func() { // the daemon's park in the big stream
			select {
			case <-secondPut:
			case <-time.After(5 * time.Second):
			}
		})
	}}
	cl := cluster.NewCluster(nil)
	for _, name := range []string{"w1", "w2"} {
		_ = cl.AddNode(cluster.NewNode(name, cluster.Options{Clock: clk}))
	}
	sys, err := NewSystem(Config{
		Workflow:        wf,
		Cluster:         cl,
		DefaultSpec:     cluster.Spec{MemoryMB: 128}, // 5 MB/s: the 64 KiB stream parks
		DisablePressure: true,                        // Put(big) returns at once
		Clock:           clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	_ = sys.Register("producer", func(ctx *Context) error {
		if err := ctx.Put("big", big); err != nil {
			return err
		}
		err := ctx.Put("small", []byte("s"))
		close(secondPut)
		return err
	})
	_ = sys.Register("sink", func(ctx *Context) error {
		x, err := ctx.Input("x")
		if err != nil {
			return err
		}
		if !bytes.Equal(x, big) {
			return fmt.Errorf("sink received %d bytes, not the producer's big payload", len(x))
		}
		return ctx.Put("got", []byte("big"))
	})
	_ = sys.Register("tail", func(ctx *Context) error {
		y, _ := ctx.Input("y")
		return ctx.Put("got", y)
	})
	inv, err := sys.Invoke(map[string][]byte{"producer.in": []byte("go")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-inv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the request never completed: the queued Put's items were lost")
	}
	if err := inv.Err(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, it := range inv.Outputs() {
		got = append(got, it.From.Fn+"="+string(it.Value.Payload))
	}
	if len(got) != 2 || !slices.Contains(got, "sink=big") || !slices.Contains(got, "tail=s") {
		t.Fatalf("user outputs %v, want [sink=big tail=s]", got)
	}
}

// TestNothingShipsInlineWhenTheShipMayWait: with a failure injector
// installed, with a connector latency, and onto a remote sink, every
// shipment takes the DLU daemon — streams are injected per transfer, a
// latency is a sleep and an RPC is a wait, none of which belongs on an FLU's
// goroutine. The $USER edge touches no sink and stays inline.
func TestNothingShipsInlineWhenTheShipMayWait(t *testing.T) {
	const requests = 10
	run := func(t *testing.T, sys *System, invoke func(), want int64) {
		t.Helper()
		ships0, conts0 := pathCounts()
		for i := 0; i < requests; i++ {
			invoke()
		}
		if ships, conts := pathCounts(); ships-ships0 != want || conts != conts0 {
			t.Fatalf("%d inline ships and %d continuations over %d requests, want %d and 0", ships-ships0, conts-conts0, requests, want)
		}
	}
	t.Run("injector", func(t *testing.T) {
		sys := virtualChain(t, 2)
		sys.SetTransferFailureInjector(func(string) int64 { return -1 })
		run(t, sys, func() { invokeChain(t, sys) }, 0)
	})
	t.Run("remote", func(t *testing.T) {
		sys := newRemoteWCSystem(t, 2, func(c *Config) { c.DisablePressure = true })
		defer sys.Shutdown()
		run(t, sys, func() { runWC(t, sys, "a b a") }, requests) // merge's $USER edge
	})
}

// TestLatePutIsRefusedNotShippedInline: once the container's DLU plane is
// closed (Shutdown, or the container recycled under a running FLU) a Put
// that would otherwise ship inline is refused like any other — nothing
// lands, nothing panics, the request is abandoned.
func TestLatePutIsRefusedNotShippedInline(t *testing.T) {
	sys := virtualChain(t, 2)
	invokeChain(t, sys) // warm: the next Put of a would ship inline and continue
	putDone := make(chan error, 1)
	_ = sys.Register("a", func(ctx *Context) error {
		ctx.ctr.DLUClose()
		in, _ := ctx.Input("in")
		err := ctx.Put("x", in)
		putDone <- err
		return err
	})
	ships0, conts0 := pathCounts()
	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-putDone:
		if err != nil {
			t.Fatalf("refused Put = %v, want nil (the request is abandoned, not failed)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("refused Put never returned")
	}
	if ships, conts := pathCounts(); ships != ships0 || conts != conts0 {
		t.Fatalf("a Put on a closed DLU plane shipped inline (%d ships, %d continuations)", ships-ships0, conts-conts0)
	}
	select {
	case <-inv.Done():
		t.Fatal("request completed although its only shipment was refused")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestInlineShipStormVsShutdownVsFailNode is the run-to-completion race
// storm. Fault-tolerant mode, every edge inline and every consumer a
// continuation (engine and nodes share a virtual clock nobody advances, so
// T_FLU reads zero however slow the race detector makes a handler), while
// two nodes flap Down/Up — FailNode wipes their
// sinks, so re-lands and replays run on FLU goroutines. Phase one waits for
// every request: nothing may stay tracked, no sink may hold a byte. Phase
// two shuts down under a fresh storm with the flapping still on: nothing
// may panic or hang, and every goroutine the system started must exit.
// Run with -race in CI.
func TestInlineShipStormVsShutdownVsFailNode(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test")
	}
	clock.NewWall().Sleep(time.Microsecond) // start the process-wide parker before the baseline
	baseline := runtime.NumGoroutine()
	sys := newFaultSystem(t, 4, nil, func(c *Config) {
		c.DisablePressure = true
		c.Clock = frozenClock{clock.NewManual()}
	})
	cl := sys.cfg.Cluster

	stopChaos := flapNodes(cl, time.Millisecond, false)

	ships0, conts0 := pathCounts()
	const goroutines, perG = 8, 60
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
				if out, _ := inv.OutputBytes("out"); string(out) != in+",mid,tail" {
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
	ships, conts := pathCounts()
	if ships == ships0 || conts == conts0 {
		t.Fatalf("the storm took %d inline ships and %d continuations: it did not exercise the path", ships-ships0, conts-conts0)
	}
	t.Logf("phase 1: %d requests, %d inline ships, %d continuations, %d replays", goroutines*perG, ships-ships0, conts-conts0, sys.Replays())
	requireSinksDrained(t, sys)

	invs := stormUntilShutdown(sys, 256, func(g, i int) map[string][]byte {
		return map[string][]byte{"a.in": []byte(fmt.Sprintf("s%d-%d", g, i))}
	})
	stopChaos()
	t.Logf("phase 2: %d/%d requests completed before shutdown", len(completedOf(invs)), len(invs))
	until(t, func() bool { return runtime.NumGoroutine() <= baseline },
		fmt.Sprintf("goroutines did not return to the baseline of %d", baseline))
}

// frozenClock is a virtual clock that stands still: a Sleep returns at once
// instead of parking its goroutine on a clock nobody advances. (The storm's
// configuration runs no tick loop, so After is never asked.)
type frozenClock struct{ *clock.Manual }

func (frozenClock) Sleep(time.Duration) {}
