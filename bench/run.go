package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wmm"
)

// runOpts is one benchmark run's arguments.
type runOpts struct {
	seed   int64
	window time.Duration
	trace  bool
	// quick is the smoke test's scale: a fiftieth of the warm-up, one
	// set-up and a short ladder. Its numbers mean nothing.
	quick bool
}

// setups is how many times an end-to-end run builds and warms the system;
// setup_s is their median, the last one is measured.
const setups = 3

// drainTimeout is how long requests in flight at the end of a window get
// to finish before they count as failed.
const drainTimeout = 10 * time.Second

// primePool is how many instances of each function prime runs together. It
// is the engine's default per-function container cap, held here as the
// benchmark's own number: if the engine's cap drops below it the priming
// barrier fails by name, if it rises cluster.cold_starts shows the gap.
const primePool = 32

// loadClient is one closed-loop caller: it sends its next request only
// after the previous one returned. The generator opens no connections of
// its own; clients are goroutines calling System.Invoke.
type loadClient struct {
	id    int
	buf   []byte
	in    map[string][]byte
	n     uint64
	lat   []int32 // ns per completed request of the current phase
	spans spanSet // traced windows only
	// The counters are atomics and exited orders everything else, because
	// drive reads a client whose request never returned.
	attempted atomic.Int64
	failed    atomic.Int64 // errors and wrong outputs
	exited    atomic.Bool  // the phase's goroutine returned: lat and spans are final
}

// load is a deployment under its workload's closed loop.
type load struct {
	d       *deployment
	tmpl    []byte
	ref     uint64
	clients []*loadClient
	drain   time.Duration // drainTimeout, shorter in tests
}

func newLoad(d *deployment, seed int64) *load {
	ld := &load{d: d, tmpl: d.w.template(seed), drain: drainTimeout}
	ld.ref = d.w.reference(ld.tmpl)
	for i := 0; i < d.w.clients; i++ {
		ld.clients = append(ld.clients, ld.newClient(i))
	}
	return ld
}

func (ld *load) newClient(id int) *loadClient {
	c := &loadClient{id: id, buf: slices.Clone(ld.tmpl)}
	c.in = map[string][]byte{ld.d.w.entry: c.buf}
	return c
}

// request issues one request and checks its response against the
// generator's reference.
func (ld *load) request(c *loadClient, tr *tracer) {
	w := ld.d.w
	c.n++
	seq := seqOf(c.id, c.n)
	w.stamp(c.buf, seq)
	c.attempted.Add(1)
	var rec *reqRecord
	var t0, t1 int64
	if tr != nil {
		rec = tr.begin(seq)
		t0 = tr.now()
	}
	start := time.Now()
	inv, err := ld.d.sys.Invoke(c.in)
	if err != nil {
		c.failed.Add(1)
		return
	}
	if tr != nil {
		t1 = tr.now()
	}
	err = inv.Wait()
	lat := time.Since(start)
	if tr != nil {
		c.spans.fold(w, rec, t0, t1, tr.now())
	}
	out, ok := inv.OutputBytes("out")
	if err != nil || !ok || !w.verify(out, ld.tmpl, seq, ld.ref) {
		c.failed.Add(1)
		return
	}
	c.lat = append(c.lat, int32(min(lat, 1<<31-1)))
}

// latencyQuantiles pools the clients' latencies of a phase: its nearest-rank
// p50 and p99 in nanoseconds over all n samples. A client that never
// returned is left out: its samples are still its own.
func latencyQuantiles(clients []*loadClient) (p50, p99 float64, n int) {
	var all []int32
	for _, c := range clients {
		if c.exited.Load() {
			all = append(all, c.lat...)
		}
	}
	slices.Sort(all)
	return float64(percentile(all, 0.50)), float64(percentile(all, 0.99)), len(all)
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	elapsed   time.Duration
	cpu       time.Duration
	attempted int64
	// failed counts errors, wrong outputs and hung requests; hung is how
	// many of them had not returned when the drain timeout ran out.
	failed, hung int64
	// The phase's latency quantiles in nanoseconds, over samples samples.
	p50, p99 float64
	samples  int
	spans    spanSet
}

func (p *phase) completed() int64 { return p.attempted - p.failed }
func (p *phase) rps() float64     { return float64(p.completed()) / p.elapsed.Seconds() }

// drive runs every client until next says stop, then gives requests still
// in flight ld.drain to finish. A request that has not returned by then
// counts as failed, its client is abandoned with whatever it holds, and the
// deployment is marked wedged: the load must not be driven again. Elapsed
// time runs until the last client returned, so every counted completion lies
// inside it.
func (ld *load) drive(next func() bool, stopped func() bool, tr *tracer, sizeHint int) (*phase, error) {
	cpu0, err := ld.d.cpuTime()
	if err != nil {
		return nil, err
	}
	for _, c := range ld.clients {
		c.attempted.Store(0)
		c.failed.Store(0)
		c.exited.Store(false)
		c.lat = slices.Grow(c.lat[:0], sizeHint/len(ld.clients))
		if tr != nil {
			c.spans = spanSet{}
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range ld.clients {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			defer c.exited.Store(true)
			for next() {
				ld.request(c, tr)
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var deadline time.Time
wait:
	for {
		select {
		case <-done:
			break wait
		case <-time.After(50 * time.Millisecond):
		}
		if !stopped() {
			continue
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(ld.drain)
		} else if time.Now().After(deadline) {
			break wait
		}
	}
	p := &phase{elapsed: time.Since(start)}
	cpu1, err := ld.d.cpuTime()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	for _, c := range ld.clients {
		p.attempted += c.attempted.Load()
		p.failed += c.failed.Load()
		if !c.exited.Load() {
			p.hung++ // the one request it is still inside
			continue
		}
		if tr != nil {
			for i := range p.spans {
				p.spans[i].merge(&c.spans[i])
			}
		}
	}
	p.failed += p.hung
	if p.hung > 0 {
		ld.d.wedged = true
		fmt.Fprintf(os.Stderr, "bench: %d requests of %s still unfinished %v after their phase closed\n", p.hung, ld.d.w.name, ld.drain)
	}
	return p, nil
}

// warmup sends a fixed number of requests, so that set-up time scales with
// the engine's speed.
func (ld *load) warmup(n int) (*phase, error) {
	var left atomic.Int64
	left.Store(int64(n))
	return ld.drive(func() bool { return left.Add(-1) >= 0 }, func() bool { return left.Load() < 0 }, nil, n)
}

// window runs the closed loop for dur and takes its latency quantiles.
func (ld *load) window(dur time.Duration, tr *tracer, sizeHint int) (*phase, error) {
	var stop atomic.Bool
	t := time.AfterFunc(dur, func() { stop.Store(true) })
	defer t.Stop()
	p, err := ld.drive(func() bool { return !stop.Load() }, stop.Load, tr, sizeHint)
	if err == nil {
		p.p50, p.p99, p.samples = latencyQuantiles(ld.clients)
	}
	return p, err
}

// drained waits for the engine to forget every request and for the sinks to
// empty, and returns what is still resident when they do not.
func (ld *load) drained() (pending int, leaked int64, err error) {
	for deadline := time.Now().Add(ld.drain); ; time.Sleep(time.Millisecond) {
		pending = ld.d.sys.PendingInvocations()
		if leaked, err = ld.d.residentBytes(); err != nil {
			return pending, leaked, err
		}
		if (pending == 0 && leaked == 0) || time.Now().After(deadline) {
			return pending, leaked, nil
		}
	}
}

// prime grows every function's container pool to primePool, the engine's
// default cap (which its per-function instance semaphore also enforces), so
// that no cold start — nor an Eq. 1 prewarm, which only starts a container
// when none is idle — can fall into a timed window. The closed loop's client
// count does not bound a pool: a request can complete, and its client send
// the next, before the finished instances have released their containers.
// Function by function, prime holds the handler at a barrier until a full
// pool's worth of instances runs together.
func (ld *load) prime() error {
	w := ld.d.w
	primers := make([]*loadClient, primePool)
	for i := range primers {
		primers[i] = ld.newClient(i)
	}
	for si, stage := range w.stages {
		f := w.fns[si]
		requests := primePool / len(stage)
		want := int64(requests * len(stage))
		var arrived atomic.Int64
		release := make(chan struct{})
		plain := w.handler(f, nil)
		err := ld.d.sys.Register(f.name, func(ctx *core.Context) error {
			if arrived.Add(1) == want {
				close(release)
			}
			select {
			case <-release:
			case <-time.After(drainTimeout):
				return fmt.Errorf("bench: only %d of %d %s instances ran together", arrived.Load(), want, f.name)
			}
			return plain(ctx)
		})
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		for _, c := range primers[:requests] {
			wg.Add(1)
			go func(c *loadClient) {
				defer wg.Done()
				ld.request(c, nil)
			}(c)
		}
		wg.Wait()
		for _, c := range primers {
			if c.failed.Load() != 0 {
				return fmt.Errorf("bench: a priming request of %s failed", f.name)
			}
		}
		if err := ld.d.sys.Register(f.name, plain); err != nil {
			return err
		}
	}
	return nil
}

// setUp builds the deployment, primes its container pools and warms it with
// the workload's fixed request count.
func (w *workload) setUp(o runOpts) (*load, *phase, error) {
	d, err := w.deploy(o.trace)
	if err != nil {
		return nil, nil, err
	}
	ld := newLoad(d, o.seed)
	n := w.warmup
	if o.quick {
		n /= 50
	}
	var warm *phase
	if err = ld.prime(); err == nil {
		warm, err = ld.warmup(n)
	}
	if err == nil && warm.hung > 0 {
		err = fmt.Errorf("bench: the warm-up of %s wedged the system", w.name)
	}
	if err != nil {
		fmt.Fprint(os.Stderr, d.workerStderr())
		d.close()
		return nil, nil, err
	}
	return ld, warm, nil
}

// run is one benchmark run of w: set-up, warm-up, the timed window(s), the
// drain check and, traced, the ladder. Attempted and failed cover every
// request sent after priming, the warm-ups' included.
func (w *workload) run(o runOpts) (res *result, err error) {
	n := setups
	if o.trace || o.quick {
		n = 1
	}
	res = &result{Metrics: map[string]metricValue{}}
	var ld *load
	var warm *phase
	var setupS []float64
	for i := 0; i < n; i++ {
		if ld != nil {
			ld.d.close()
		}
		t0 := time.Now()
		if ld, warm, err = w.setUp(o); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		res.Attempted += warm.attempted
		res.Failed += warm.failed
	}
	defer ld.d.close()
	defer func() {
		if err != nil || !res.Correct {
			fmt.Fprint(os.Stderr, ld.d.workerStderr())
		}
	}()

	// Size the latency buffers from the warm-up's rate, with headroom.
	hint := func(dur time.Duration) int { return int(1.5*warm.rps()*dur.Seconds()) + 1024 }
	// untraced is where latency_p99_us and cpu_us_per_req come from: the
	// whole window of an end-to-end run, the untraced half of a traced one.
	var untraced, measured *phase
	if !o.trace {
		if measured, err = ld.window(o.window, nil, hint(o.window)); err != nil {
			return nil, err
		}
		untraced = measured
	} else {
		if untraced, measured, err = w.tracedWindows(ld, o, hint, res); err != nil {
			return nil, err
		}
		res.Attempted += untraced.attempted
		res.Failed += untraced.failed
	}
	res.Attempted += measured.attempted
	res.Failed += measured.failed
	pending, leaked, err := ld.drained()
	if err != nil {
		return nil, err
	}
	if pending != 0 || leaked != 0 {
		fmt.Fprintf(os.Stderr, "bench: dirty drain on %s: %d invocations pending, %d sink bytes resident\n", w.name, pending, leaked)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d window=%.2fs completed=%d failed=%d latency_p99_us=%.3f over %d untraced samples, %d beyond it\n",
		w.name, o.seed, measured.elapsed.Seconds(), measured.completed(), res.Failed, untraced.p99/1e3, untraced.samples, untraced.samples/100)

	res.set("failed_share", res.failedShare())
	res.set("latency_p99_us", untraced.p99/1e3)
	res.set("cpu_us_per_req", float64(untraced.cpu.Microseconds())/float64(max(untraced.completed(), 1)))
	if !o.trace {
		res.set("throughput_rps", measured.rps())
		res.set("latency_p50_us", measured.p50/1e3)
		res.set("setup_s", median(setupS))
		return res, nil
	}
	res.set("wmm.leaked_bytes", float64(leaked))
	rungs, err := w.ladder(ld.tmpl, o.quick)
	if err != nil {
		return nil, err
	}
	for name, v := range rungs {
		res.set(name, v)
	}
	w.budget(res)
	return res, nil
}

// counts is the engine-side bookkeeping read around the traced window:
// registry counters, sink counters and allocator totals.
type counts struct {
	obs  obs.Snapshot
	sink wmm.Stats
	mem  runtime.MemStats
}

func (ld *load) counts() *counts {
	c := &counts{obs: obs.Default().Snapshot(), sink: ld.d.sys.SinkStats()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// tracedWindows is the traced run's measurement: half of the time untraced
// (the overhead baseline on the same warmed system, and long enough for ten
// samples beyond its p99 on the slowest workload), then the handlers are
// re-registered with the tracer and the other half is traced, with the
// registry, sink and allocator counters read on both sides.
func (w *workload) tracedWindows(ld *load, o runOpts, hint func(time.Duration) int, res *result) (base, p *phase, err error) {
	if base, err = ld.window(o.window/2, nil, hint(o.window/2)); err != nil || base.hung > 0 {
		return base, &phase{}, err // a wedged system is not driven again
	}
	tr := newTracer(w)
	if err := ld.d.register(tr); err != nil {
		return nil, nil, err
	}
	before := ld.counts()
	ld.d.timing.Store(true)
	p, err = ld.window(o.window-o.window/2, tr, hint(o.window/2))
	ld.d.timing.Store(false)
	if err != nil {
		return nil, nil, err
	}
	after := ld.counts()

	reqs := float64(max(p.completed(), 1))
	us := func(kind int, q float64) float64 { return p.spans[kind].quantile(q) / 1e3 }
	res.set("trace.overhead_ratio", p.rps()/base.rps())
	res.set("trace.latency_p50_us", us(spLatency, 0.5))
	res.set("core.invoke_call_us", us(spInvoke, 0.5))
	res.set("core.entry_trigger_us", us(spEntry, 0.5))
	res.set("core.edge_trigger_us", us(spEdge, 0.5))
	res.set("core.edge_trigger_p99_us", us(spEdge, 0.99))
	res.set("core.put_call_us", us(spPut, 0.5))
	res.set("core.input_call_us", us(spInput, 0.5))
	res.set("core.complete_us", us(spComplete, 0.5))
	res.set("core.span_gap_us", us(spGap, 0.5))
	res.set("core.fanin_skew_us", us(spSkew, 0.5))
	res.set("handler.self_us", us(spSelf, 0.5))
	res.set("core.allocs_per_req", float64(after.mem.Mallocs-before.mem.Mallocs)/reqs)
	res.set("core.alloc_bytes_per_req", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/reqs)

	// A series the registry does not carry reads as 0 (the per-item DLU
	// daemon, the default, records no batch sizes).
	counter := func(name string) float64 {
		return float64(after.obs.Counters[name] - before.obs.Counters[name])
	}
	hb, ha := before.obs.Histograms["core_dlu_batch_items"], after.obs.Histograms["core_dlu_batch_items"]
	batchMean := 0.0
	if ha.Count > hb.Count {
		batchMean = float64(ha.Sum-hb.Sum) / float64(ha.Count-hb.Count)
	}
	res.set("core.dlu_batch_items_mean", batchMean)
	res.set("cluster.cold_starts", counter("cluster_cold_starts_total"))
	res.set("cluster.containers_peak", float64(after.obs.Counters["cluster_cold_starts_total"]-ld.d.coldStartsAtDeploy))

	puts := float64(after.sink.Puts - before.sink.Puts)
	hits := float64(after.sink.MemHits - before.sink.MemHits)
	gets := hits + float64(after.sink.DiskHits-before.sink.DiskHits) + float64(after.sink.Misses-before.sink.Misses)
	res.set("wmm.puts_per_req", puts/reqs)
	res.set("wmm.gets_per_req", gets/reqs)
	res.set("wmm.mem_hit_ratio", hits/max(gets, 1))
	res.set("wmm.resident_peak_bytes", float64(after.sink.PeakMemBytes))

	frames := counter("transport_frames_sent_total") + counter("transport_frames_recv_total")
	wire := counter("transport_bytes_sent_total") + counter("transport_bytes_recv_total")
	res.set("transport.frames_per_req", frames/reqs)
	res.set("transport.wire_bytes_per_req", wire/reqs)
	res.set("transport.wire_amplification", wire/reqs/float64(w.payload))
	res.set("transport.retries", counter("transport_retries_total"))
	res.set("transport.timeouts", counter("transport_timeouts_total"))
	landUS, getUS := ld.d.loadedRPC()
	res.set("transport.tcp_land_loaded_us", landUS)
	res.set("transport.tcp_get_loaded_us", getUS)
	return base, p, nil
}

// budget attributes the workload's median edge to the ladder's rungs: the
// idle rungs times their counts on that edge; for RPCs, what the same calls
// cost beyond their idle rung under the workload's load (the wait behind
// the shared Client), named on its own; and the remainder — goroutine
// handoffs and wake-ups, i.e. core's self time.
func (w *workload) budget(res *result) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	e := w.edge
	var attributed, queue float64
	if w.workers > 0 {
		attributed = e.lands*v("transport.tcp_land_us") + e.gets*v("transport.tcp_get_us")
		queue = e.lands*max(v("transport.tcp_land_loaded_us")-v("transport.tcp_land_us"), 0) +
			e.gets*max(v("transport.tcp_get_loaded_us")-v("transport.tcp_get_us"), 0)
	} else {
		attributed = (e.lands*(v("transport.inproc_land_ns")+v("pipe.take_cpu_ns")) + e.gets*v("wmm.get_ns")) / 1e3
	}
	attributed += e.chunks * v("pipe.chunk_wait_us")
	attributed += (v("cluster.acquire_release_ns") + v("dataflow.tracker_req_ns")/float64(w.instances())) / 1e3
	res.set("transport.client_queue_wait_us", queue/(e.lands+e.gets))
	res.set("budget.edge_attributed_us", attributed)
	res.set("budget.edge_queue_wait_us", queue)
	res.set("budget.edge_unattributed_us", v("core.edge_trigger_us")-attributed-queue)
}
