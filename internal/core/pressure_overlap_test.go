package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/workflow"
)

// These tests pin where Put's Eq. 1 pressure block sits: after the hand-off
// to the DLU, so the data ships while the FLU is throttled, and not at all
// when the DLU refused the task.

const pressureDSL = `
workflow p
function producer
  input in from $USER
  output big to sink.x
function sink
  input x
  output done to $USER
`

// newPressureSystem builds the two-node producer→sink system at 5 MB/s per
// container, engine and nodes all on clk. Placement is round robin in
// registration order: producer on w1, sink on w2 — local, or consumer's
// node when consumer is not nil; cfgMut edits the engine's Config. Its
// cleanup shuts the system down, running the clock on whenever something
// parks meanwhile, so a failed test's sleepers cannot wedge the shutdown.
func newPressureSystem(t *testing.T, clk *clock.Manual, alpha float64, consumer func(*clock.Manual, cluster.Options) *cluster.Node, cfgMut ...func(*Config)) *System {
	t.Helper()
	wf, err := workflow.ParseDSLString(pressureDSL)
	if err != nil {
		t.Fatal(err)
	}
	w2 := cluster.NewNode("w2", cluster.Options{Clock: clk})
	if consumer != nil {
		w2 = consumer(clk, cluster.Options{Clock: clk})
	}
	cl := cluster.NewCluster(nil)
	for _, n := range []*cluster.Node{cluster.NewNode("w1", cluster.Options{Clock: clk}), w2} {
		if err := cl.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		Workflow:    wf,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: 128}, // 5 MB/s
		Alpha:       alpha,
		Clock:       clk,
	}
	for _, mut := range cfgMut {
		mut(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		down := make(chan struct{})
		go func() {
			defer close(down)
			sys.Shutdown()
		}()
		for {
			select {
			case <-down:
				return
			case <-clk.Parked(1):
				clk.Advance(time.Hour)
			}
		}
	})
	return sys
}

// waitClosed blocks until ch closes or the test's patience runs out.
func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestPressureBlockOverlapsShip(t *testing.T) {
	clk := clock.NewManual()
	sys := newPressureSystem(t, clk, 2.0, nil)
	// One streaming chunk: 64 KiB at 5 MB/s is 13.1 ms on the wire, and with
	// α = 2 and T_FLU = 0 the Eq. 1 block is twice that.
	payload := make([]byte, 64<<10)
	wire := time.Duration(float64(len(payload)) / 5e6 * float64(time.Second))
	pressure := 2 * wire

	start := clk.Now()
	putDone, sinkStarted := make(chan struct{}), make(chan struct{})
	var putReturned time.Duration
	_ = sys.Register("producer", func(ctx *Context) error {
		err := ctx.Put("big", payload)
		putReturned = clk.Now()
		close(putDone)
		return err
	})
	_ = sys.Register("sink", func(ctx *Context) error {
		close(sinkStarted)
		return ctx.Put("done", []byte("ok"))
	})
	inv, err := sys.Invoke(map[string][]byte{"producer.in": []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	// Two sleepers: the producer inside its pressure block, and the DLU
	// daemon pacing the chunk — the ship started without waiting for the
	// block to end. The chunk's wire time is the earlier deadline.
	waitClosed(t, clk.Parked(2), "the ship to start during the pressure block")
	clk.Step()
	waitClosed(t, sinkStarted, "the consumer to be triggered")
	select {
	case <-putDone:
		t.Fatalf("Put returned after %v, before its %v pressure block ended", clk.Now()-start, pressure)
	default:
	}
	// The consumer ran while the producer was still throttled, and the
	// request is done once its answer lands; the block itself is as long as
	// ever, and the request's runs are over only once it has been slept out.
	settle(t, sys, clk)
	waitClosed(t, putDone, "Put to return")
	if got := putReturned - start; got < pressure {
		t.Fatalf("Put returned after %v, want no sooner than the %v pressure block", got, pressure)
	}
	waitClosed(t, inv.Done(), "the request to complete")
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRefusedPutDoesNotBlock(t *testing.T) {
	clk := clock.NewManual()
	sys := newPressureSystem(t, clk, 2.0, nil)
	putDone := make(chan struct{})
	var putErr error
	_ = sys.Register("producer", func(ctx *Context) error {
		// The DLU plane shuts down (or the container is recycled) under a
		// running FLU: its late Put is refused.
		ctx.ctr.DLUClose()
		putErr = ctx.Put("big", make([]byte, 64<<10)) // 26 ms of pressure, were it shipped
		close(putDone)
		return nil
	})
	_ = sys.Register("sink", func(ctx *Context) error { return ctx.Put("done", []byte("ok")) })
	if _, err := sys.Invoke(map[string][]byte{"producer.in": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// Nobody advances the clock: a Put that slept its pressure block for a
	// shipment that will never happen would hang here.
	waitClosed(t, putDone, "the refused Put to return without blocking")
	if putErr != nil {
		t.Fatalf("refused Put = %v, want nil (the request is abandoned, not failed)", putErr)
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("%d sleepers parked on the clock after a refused Put", n)
	}
}

// TestRelayHopTracksWireTime runs the benchmark's relay shape (a→b→c, 256
// KiB, 400 MB/s containers) on the wall clock and holds the median hop —
// Put call to the consumer's trigger — to the hop's wire time plus two of
// the box's own timer floors: one park's lateness is the price of pacing by
// sleeping, a floor per chunk is not. The small fixed allowance covers what
// is not pacing at all: landing the value and two goroutine hand-offs.
func TestRelayHopTracksWireTime(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing check")
	}
	if raceEnabled {
		t.Skip("the race detector's slowdown is not the limiter's")
	}
	wf, err := workflow.ParseDSLString(`
workflow relay
function a
  input in from $USER
  output x to b.x
function b
  input x
  output y to c.y
function c
  input y
  output out to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for i := 1; i <= 4; i++ {
		if err := cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{})); err != nil {
			t.Fatal(err)
		}
	}
	spec := cluster.Spec{MemoryMB: 10 * 1024} // 400 MB/s
	sys, err := NewSystem(Config{Workflow: wf, Cluster: cl, DefaultSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	var mu sync.Mutex
	var hops []time.Duration
	var sent time.Time // the request's latest Put; requests run one at a time
	relay := func(in, out string) Handler {
		return func(ctx *Context) error {
			b, err := ctx.Input(in)
			if err != nil {
				return err
			}
			mu.Lock()
			if in != "in" {
				hops = append(hops, time.Since(sent))
			}
			sent = time.Now()
			mu.Unlock()
			return ctx.Put(out, b)
		}
	}
	_ = sys.Register("a", relay("in", "x"))
	_ = sys.Register("b", relay("x", "y"))
	_ = sys.Register("c", relay("y", "out"))

	payload := make([]byte, 256<<10)
	const warm, timed = 5, 40
	for i := 0; i < warm+timed; i++ {
		if i == warm {
			mu.Lock()
			hops = hops[:0]
			mu.Unlock()
		}
		inv, err := sys.Invoke(map[string][]byte{"a.in": payload})
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	floors := make([]time.Duration, 50)
	for i := range floors {
		start := time.Now()
		// The bound is stated in this box's own sleep floor, so the test
		// measures it: a time.Sleep is what it reads.
		time.Sleep(50 * time.Microsecond)
		floors[i] = time.Since(start)
	}
	median := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	floor, hop := median(floors), median(hops)
	wire := time.Duration(float64(len(payload)) / spec.BandwidthBps() * float64(time.Second))
	const handoff = 250 * time.Microsecond
	if limit := wire + 2*floor + handoff; hop > limit {
		t.Fatalf("median hop %v over %d hops, want ≤ %v (wire %v + 2 × sleep floor %v + %v)", hop, len(hops), limit, wire, floor, handoff)
	}
	t.Logf("median hop %v (wire %v, sleep floor %v)", hop, wire, floor)
}
