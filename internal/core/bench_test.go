package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/workflow"
)

const benchDSL = `
workflow bench
function a
  input in from $USER
  output x to b.x
function b
  input x
  output out to $USER
`

// newBenchSystem builds the benchmark system: a two-function chain placed
// round-robin over a 4-node cluster (a and b land on different nodes, so
// every request crosses the pipe connector path), fast containers, no trace,
// then whatever cfgMut changes.
func newBenchSystem(b testing.TB, cfgMut ...func(*Config)) *System {
	b.Helper()
	wf, err := workflow.ParseDSLString(benchDSL)
	if err != nil {
		b.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for i := 1; i <= 4; i++ {
		if err := cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{})); err != nil {
			b.Fatal(err)
		}
	}
	cfg := Config{
		Workflow:    wf,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024},
	}
	for _, mut := range cfgMut {
		mut(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	reg(sys.Register("a", func(ctx *Context) error {
		in, err := ctx.Input("in")
		if err != nil {
			return err
		}
		return ctx.Put("x", in)
	}))
	reg(sys.Register("b", func(ctx *Context) error {
		x, err := ctx.Input("x")
		if err != nil {
			return err
		}
		return ctx.Put("out", x)
	}))
	return sys
}

// benchPayload is the small request payload every throughput benchmark
// issues: tiny, so the engine's per-request coordination — not data
// movement — dominates.
var benchPayload = []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")

// runInvokeThroughput is the shared storm body: g goroutines issuing
// complete small-payload workflow requests (Invoke → schedule → container
// acquire → handler → DLU ship → land → deliver → teardown GC) against sys.
func runInvokeThroughput(b *testing.B, sys *System, g int) {
	// Warm the container pools so cold-start noise stays out.
	warm, err := sys.Invoke(map[string][]byte{"a.in": benchPayload})
	if err != nil {
		b.Fatal(err)
	}
	if err := warm.Wait(); err != nil {
		b.Fatal(err)
	}
	perG := b.N/g + 1
	var wg sync.WaitGroup
	errs := make([]error, g)
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < g; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Invoke does not retain the input map; a real client
			// issuing a request stream reuses its buffer.
			in := map[string][]byte{"a.in": benchPayload}
			for i := 0; i < perG; i++ {
				inv, err := sys.Invoke(in)
				if err != nil {
					errs[w] = err
					return
				}
				if err := inv.Wait(); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkInvokeThroughput measures the runtime-plane control path.
//
// goroutines=G varies client concurrency at whatever GOMAXPROCS the run
// was launched with. cores=N is the scaling curve: the engine is rebuilt
// under GOMAXPROCS=N and driven by 8*N closed-loop clients, so the
// N∈{1,2,4,8} series shows how throughput scales with cores. On a 1-core
// runner the curve is flat by construction; see README for multi-core
// numbers.
func BenchmarkInvokeThroughput(b *testing.B) {
	for _, g := range []int{1, 8, 16, 64} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			sys := newBenchSystem(b)
			defer sys.Shutdown()
			runInvokeThroughput(b, sys, g)
		})
	}
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			// GOMAXPROCS must be set before NewSystem: the executor-pool
			// width is sized off it.
			prev := runtime.GOMAXPROCS(n)
			defer runtime.GOMAXPROCS(prev)
			sys := newBenchSystem(b)
			defer sys.Shutdown()
			runInvokeThroughput(b, sys, 8*n)
		})
	}
}

// newFanSystem builds the fan-out benchmark system: fanoutDSL over a 4-node
// cluster, split sending k parts FOREACH, each work instance passing its part
// on, and join, which checks it got k, returning the first. The parts are
// made once: the handlers allocate nothing the engine does not ask for.
func newFanSystem(tb testing.TB, k int) *System {
	tb.Helper()
	wf, err := workflow.ParseDSLString(fanoutDSL)
	if err != nil {
		tb.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for i := 1; i <= 4; i++ {
		if err := cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{})); err != nil {
			tb.Fatal(err)
		}
	}
	sys, err := NewSystem(Config{Workflow: wf, Cluster: cl, DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024}})
	if err != nil {
		tb.Fatal(err)
	}
	parts := make([][]byte, k)
	for i := range parts {
		parts[i] = benchPayload
	}
	reg := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	reg(sys.Register("split", func(ctx *Context) error { return ctx.PutForeach("parts", parts) }))
	reg(sys.Register("work", func(ctx *Context) error {
		part, err := ctx.Input("part")
		if err != nil {
			return err
		}
		return ctx.Put("out", part)
	}))
	reg(sys.Register("join", func(ctx *Context) error {
		got, err := ctx.InputList("parts")
		if err != nil {
			return err
		}
		if len(got) != k {
			return fmt.Errorf("join got %d parts, want %d", len(got), k)
		}
		return ctx.Put("result", got[0])
	}))
	return sys
}

// BenchmarkFanRequest measures one FOREACH request of k instances end to end,
// one client back to back: split → k × work → join, in process on 4 nodes.
// Its B/op is the per-request engine state a fan-out grows, the number the
// recycled request state should keep flat.
func BenchmarkFanRequest(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sys := newFanSystem(b, k)
			defer sys.Shutdown()
			in := map[string][]byte{"split.src": benchPayload}
			for i := 0; i < 20; i++ { // warm the pools
				if _, err := invokeWait(sys, in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := invokeWait(sys, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// invokeWait runs one request to its end.
func invokeWait(sys *System, in map[string][]byte) (*Invocation, error) {
	inv, err := sys.Invoke(in)
	if err != nil {
		return nil, err
	}
	return inv, inv.Wait()
}

// TestFanAllocsCeiling pins BenchmarkFanRequest's k = 16 shape. It measures
// 3 objects a request: the handle, split's PutForeach values and join's
// InputList slice. Every edge lands in the request's tracker, not a sink, so
// there is no sink key, entry or arrival record; with them it was 36 (43
// while the arrival log regrew every request). The ceiling may only go down.
func TestFanAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sys := newFanSystem(t, 16)
	defer sys.Shutdown()
	measureInvokeAllocs(t, sys, map[string][]byte{"split.src": benchPayload}, 3)
}

// TestInvokeAllocsCeiling gates the pooling work: one complete request on
// the bench chain must stay within the allocation budget. The warm chain
// measures 1 object a request — the Invocation handle Invoke returns. The
// engine state (tracker, pins, arrival log) comes off a per-stripe free-list,
// Wait needs no channel, payloads travel as byte slices, the request id is
// never formatted, and the one edge is direct, so there is no sink key and no
// sink entry. The ceiling sits one above that so unrelated noise does not
// flake it, while a pooling regression (state no longer recycled, a channel
// or an id string per request, the direct edge lost) trips it.
func TestInvokeAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sys := newBenchSystem(t)
	defer sys.Shutdown()
	measureInvokeAllocs(t, sys, map[string][]byte{"a.in": benchPayload}, 2)
}

// TestHandleFitsItsSizeClass pins the one allocation's size: the handle
// holds the outcome and Wait's and Done's signals, nothing only a test reads,
// so it fits the allocator's 240-byte class (BenchmarkInvokeThroughput's
// B/op).
func TestHandleFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Invocation{}); n > 240 {
		t.Fatalf("Invocation is %d bytes, want at most 240", n)
	}
}

// TestFirstDoneAllocatesOnlyItsChannel: the first Done on a request still
// running makes its channel and nothing else. A channel is pointer-shaped,
// so the handle stores it without a heap box; a pointer to the channel
// would cost a second allocation.
func TestFirstDoneAllocatesOnlyItsChannel(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const runs = 100
	invs := make([]Invocation, runs+1) // AllocsPerRun makes one warm-up call
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		invs[next].Done()
		next++
	})
	if avg != 1 {
		t.Fatalf("first Done in flight allocates %.1f objects, want 1 (its channel)", avg)
	}
}

// TestInvokeAllocsCeilingWithSampling pins the obs plane's alloc claim: the
// metric instruments plus 1-in-1024 sampled tracing fit the same budget —
// unsampled requests allocate nothing for observability, and the sampled
// minority's id strings and span records amortize to ~0 per request.
func TestInvokeAllocsCeilingWithSampling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sys := newBenchSystem(t, func(cfg *Config) { cfg.Obs.SampleEvery = 1024 })
	defer sys.Shutdown()
	measureInvokeAllocs(t, sys, map[string][]byte{"a.in": benchPayload}, 2)
}

// TestRelayAllocsCeiling pins the streaming shape: a 256 KiB payload relayed
// a → b → c across nodes, Eq. 1 on, each hop through the DLU daemon and the
// streaming pipe into the request's tracker. It measures 3 objects a
// request: the handle and, per streamed hop (a → b, b → c), the one-element
// limiter array transport.Inproc.Stream hands the pipe, which escapes. No
// sink key names the request (6 while each hop was put in the sink, 13 while
// the engine state was allocated with the handle and payloads were boxed),
// and no stream id is formatted: only a failure injector names streams. The
// ceiling may only go down.
func TestRelayAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sys := newSystemFromDSL(t, relayAllocsDSL, 4, func(c *Config) { c.DefaultSpec = cluster.Spec{MemoryMB: 10 * 1024} })
	relay(sys, "a", "in", "x")
	relay(sys, "b", "x", "y")
	relay(sys, "c", "y", "out")
	defer sys.Shutdown()
	measureInvokeAllocs(t, sys, map[string][]byte{"a.in": make([]byte, 256<<10)}, 3)
}

const relayAllocsDSL = `
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
`

func measureInvokeAllocs(t *testing.T, sys *System, in map[string][]byte, ceiling float64) {
	t.Helper()
	// Warm containers and pools so the measurement sees steady state.
	for i := 0; i < 50; i++ {
		inv, err := sys.Invoke(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		inv, err := sys.Invoke(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Fatalf("Invoke allocates %.1f objects/request, ceiling is %.0f", avg, ceiling)
	}
	t.Logf("allocs/request: %.1f (ceiling %.0f)", avg, ceiling)
}

const skewBenchDSL = `
workflow skew
function src
  input in from $USER
  output pick type SWITCH to h0.x, h1.x, h2.x, h3.x
function h0
  input x
  output done to $USER
function h1
  input x
  output done to $USER
function h2
  input x
  output done to $USER
function h3
  input x
  output done to $USER
`

// BenchmarkSkewedInvoke drives a Zipf-skewed workload (s = 3 over four
// switch branches: ~85% of requests hit h0) against a 5-node cluster with
// paper-faithful resource shaping: 128 MB containers, each shipping through
// its own 5 MB/s TC class, and a producer with real FLU compute (srcCompute
// of wall time per invocation, so concurrency grows the container pool and
// its DLU daemons pump in parallel — the §5.1 compute/transfer overlap).
// replicas=4 gives every function four replicas: requests pin across them
// by load, and locality-first selection turns co-located ships into local
// pipes, which skip the TC class (3 of the 4 producer replicas share a node
// with a hot-function replica). Compare the hot-req/s metric between the
// two sub-benchmarks.
func BenchmarkSkewedInvoke(b *testing.B) {
	const (
		payloadSize = 64 << 10 // streaming-pipe path, transfer-dominated
		branches    = 4
		srcCompute  = 20 * time.Millisecond
	)
	payloads := make([][]byte, branches)
	for c := range payloads {
		payloads[c] = make([]byte, payloadSize)
		payloads[c][0] = byte(c)
	}
	for _, tc := range []struct {
		name   string
		policy cluster.PlacementPolicy
	}{
		{"pinned", cluster.RoundRobin{}},
		{"replicas=4", cluster.RoundRobin{Replicas: 4}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			wf, err := workflow.ParseDSLString(skewBenchDSL)
			if err != nil {
				b.Fatal(err)
			}
			cl := cluster.NewCluster(tc.policy)
			for i := 1; i <= 5; i++ {
				if err := cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{})); err != nil {
					b.Fatal(err)
				}
			}
			sys, err := NewSystem(Config{
				Workflow:    wf,
				Cluster:     cl,
				DefaultSpec: cluster.Spec{MemoryMB: cluster.BaseMemoryMB},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Shutdown()
			if err := sys.Register("src", func(ctx *Context) error {
				in, err := ctx.Input("in")
				if err != nil {
					return err
				}
				// FLU compute in wall time: it holds the container, so
				// concurrency grows the pool, and leaves the CPU to the DLUs.
				time.Sleep(srcCompute)
				return ctx.PutSwitch("pick", in, int(in[0]))
			}); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < branches; i++ {
				if err := sys.Register(fmt.Sprintf("h%d", i), func(ctx *Context) error {
					if _, err := ctx.Input("x"); err != nil {
						return err
					}
					return ctx.Put("done", []byte("ok"))
				}); err != nil {
					b.Fatal(err)
				}
			}
			// Warm every branch once so cold starts stay out of the window.
			for c := 0; c < branches; c++ {
				inv, err := sys.Invoke(map[string][]byte{"src.in": payloads[c]})
				if err != nil {
					b.Fatal(err)
				}
				if err := inv.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			const g = 64
			perG := b.N/g + 1
			var wg sync.WaitGroup
			var hot atomic.Int64
			errs := make([]error, g)
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < g; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					zipf := rand.NewZipf(rng, 3.0, 1, branches-1)
					for i := 0; i < perG; i++ {
						c := int(zipf.Uint64())
						inv, err := sys.Invoke(map[string][]byte{"src.in": payloads[c]})
						if err != nil {
							errs[w] = err
							return
						}
						if err := inv.Wait(); err != nil {
							errs[w] = err
							return
						}
						if c == 0 {
							hot.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(hot.Load())/b.Elapsed().Seconds(), "hot-req/s")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkFLUStatPath times the pressure-path read every Context.Put pays:
// Eq. 1's T_FLU as observe last published it, one load of one word.
func BenchmarkFLUStatPath(b *testing.B) {
	sys := newBenchSystem(b)
	defer sys.Shutdown()
	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("x")})
	if err != nil {
		b.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		b.Fatal(err)
	}
	a := sys.fns["a"]
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if avg, sampled := a.tfluPublished(); !sampled || avg < 0 {
				b.Errorf("published T_FLU = %v, sampled %v", avg, sampled)
				return
			}
		}
	})
}
