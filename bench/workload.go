package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wmm"
	"repro/internal/workflow"
)

// benchSpec is the container size every workload deploys: 10 240 MB, i.e. a
// 400 MB/s TC class, so small payloads are never bandwidth-bound and the
// 256 KiB relay payload costs 0.66 ms of ideal wire time per hop.
var benchSpec = cluster.Spec{MemoryMB: 10 * 1024}

// seqLen is the request-sequence header every payload segment starts with:
// handlers read it to find the request's trace record, and the checksum
// handlers fold it into their result so an output delivered to the wrong
// request or the wrong instance fails verification.
const seqLen = 8

// fnKind is what a benchmark-owned handler does with its input. All four
// are near-zero compute: the engine, not the handler, is under test.
type fnKind int

const (
	kindEcho  fnKind = iota // forward the input unchanged
	kindSplit               // FOREACH the input's segments (no copy)
	kindCRC                 // emit seq·(idx+1) + crc32(segment body)
	kindSum                 // add up a LIST of kindCRC results
)

type fnSpec struct {
	name, in, out string
	kind          fnKind
	// slot is the function's first trace slot; instance idx records under
	// slot+idx.
	slot int
}

// edgeRecipe is how many layer operations sit on the workload's median
// producer→consumer edge; the budget multiplies the ladder rungs by it.
type edgeRecipe struct {
	lands, gets, chunks float64
}

// workload is one closed-loop load shape. The sizing (clients, warm-up
// count) is part of the benchmark's definition: changing it changes what
// the metrics mean.
type workload struct {
	name, why string
	dsl       string
	fns       []fnSpec
	entry     string // Invoke input key
	payload   int    // bytes per request
	parts     int    // equal segments the payload is laid out in
	clients   int
	warmup    int // fixed-count warm-up requests
	nodes     int // in-process nodes; 0 deploys onto workers
	workers   int // worker OS processes hosting the sinks over TCP
	// stages lists the trace slots of each pipeline stage in flow order; a
	// stage's instances are triggered by the previous stage's Puts.
	stages [][]int
	edge   edgeRecipe
	// informational keeps the workload out of BENCHMARK.json and every
	// verdict of -compare but correctness: it is run and reported like the
	// others, but the committing machine's raw CPU speed has two states about
	// 1.3x apart that last minutes, and the workload follows them further
	// than the widest bound BENCHMARK.json can state (README, "Noise").
	informational bool
}

const chainDSL = `
workflow chain
function a
  input in from $USER
  output x to b.x
function b
  input x
  output out to $USER
`

const relayDSL = `
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

const fanDSL = `
workflow fan
function start
  input src from $USER
  output parts type FOREACH to work.part
function work
  input part
  output sum type MERGE to merge.sums
function merge
  input sums type LIST
  output out to $USER
`

const fanParts = 8

var chainFns = []fnSpec{
	{name: "a", in: "in", out: "x", kind: kindEcho, slot: 0},
	{name: "b", in: "x", out: "out", kind: kindEcho, slot: 1},
}

var workloads = []*workload{
	{
		name: "chain-closed",
		why:  "16 clients on a 2-function 64 B chain: the control path under backlog (core handoffs, cluster free-list, tracker); bytes moved are negligible",
		dsl:  chainDSL, fns: chainFns, entry: "a.in",
		payload: 64, parts: 1, clients: 16, warmup: 100000, nodes: 4,
		stages: [][]int{{0}, {1}},
		edge:   edgeRecipe{lands: 1, gets: 1},
	},
	{
		name: "chain-serial",
		why:  "the same chain with 1 client: no backlog, every batch is a batch of one, latency is the sum of handoffs; coalescing that helps chain-closed shows here as a loss",
		dsl:  chainDSL, fns: chainFns, entry: "a.in",
		payload: 64, parts: 1, clients: 1, warmup: 100000, nodes: 4,
		stages: [][]int{{0}, {1}},
		edge:   edgeRecipe{lands: 1, gets: 1},
		// One request in flight sees the box's speed undiluted: two sets of
		// ten runs 25 minutes apart read 124k and 161k req/s.
		informational: true,
	},
	{
		name: "fan-tcp",
		why:  "4 clients on an 8-way fan-out/fan-in of 8 KiB parts with the sinks in 2 worker OS processes over loopback TCP: framing, the single-mutex client, remote wmm and tracker fan-in",
		dsl:  fanDSL, entry: "start.src",
		fns: []fnSpec{
			{name: "start", in: "src", out: "parts", kind: kindSplit, slot: 0},
			{name: "work", in: "part", out: "sum", kind: kindCRC, slot: 1},
			{name: "merge", in: "sums", out: "out", kind: kindSum, slot: 1 + fanParts},
		},
		payload: 64 << 10, parts: fanParts, clients: 4, warmup: 500, workers: 2,
		stages: [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8}, {9}},
		// The DLU ships a FOREACH's items one RPC after another, so instance
		// i starts after i+1 lands and its own get; the median of a request's
		// nine edges (eight of those plus the merge edge) has five lands.
		edge: edgeRecipe{lands: 5, gets: 1},
		// Three busy processes on two vCPUs are CPU-bound throughout: two
		// sets of ten runs 20 minutes apart read 501 and 651 req/s.
		informational: true,
	},
	{
		name: "relay-bulk",
		why:  "2 clients on a 3-function relay of 256 KiB: the streaming pipe (4 x 64 KiB chunks per hop), limiter pacing, large-value wmm and the Eq. 1 pressure block; control-path cost is negligible",
		dsl:  relayDSL, entry: "a.in",
		fns: []fnSpec{
			{name: "a", in: "in", out: "x", kind: kindEcho, slot: 0},
			{name: "b", in: "x", out: "y", kind: kindEcho, slot: 1},
			{name: "c", in: "y", out: "out", kind: kindCRC, slot: 2},
		},
		payload: 256 << 10, parts: 1, clients: 2, warmup: 200, nodes: 4,
		stages: [][]int{{0}, {1}, {2}},
		edge:   edgeRecipe{lands: 1, gets: 1, chunks: 4},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instances is the number of function instances one request runs.
func (w *workload) instances() int {
	n := 0
	for _, st := range w.stages {
		n += len(st)
	}
	return n
}

// template generates the workload's request payload from the seed. Only the
// sequence headers change between requests.
func (w *workload) template(seed int64) []byte {
	buf := make([]byte, w.payload)
	rand.New(rand.NewSource(seed)).Read(buf) //nolint:errcheck // math/rand's Read never fails
	return buf
}

// segment returns segment i of a payload.
func (w *workload) segment(buf []byte, i int) []byte {
	n := len(buf) / w.parts
	return buf[i*n : (i+1)*n]
}

// stamp writes seq into every segment header.
func (w *workload) stamp(buf []byte, seq uint64) {
	for i := 0; i < w.parts; i++ {
		binary.LittleEndian.PutUint64(w.segment(buf, i), seq)
	}
}

// reference is the generator's own answer for a template: the sum of the
// segment-body checksums. The engine never sees it.
func (w *workload) reference(tmpl []byte) uint64 {
	var sum uint64
	for i := 0; i < w.parts; i++ {
		sum += uint64(crc32.ChecksumIEEE(w.segment(tmpl, i)[seqLen:]))
	}
	return sum
}

// verify checks one response against the generator's reference: the chains
// must echo this request's sequence and the template body (compared with
// the template, not the sent buffer, which an echo aliases), the checksum
// workloads must return the reference sum with every instance's
// seq·(idx+1) term.
func (w *workload) verify(out, tmpl []byte, seq, ref uint64) bool {
	if w.fns[len(w.fns)-1].kind == kindEcho {
		return len(out) == len(tmpl) && binary.LittleEndian.Uint64(out) == seq && bytes.Equal(out[seqLen:], tmpl[seqLen:])
	}
	if len(out) != 2*seqLen || binary.LittleEndian.Uint64(out) != seq {
		return false
	}
	terms := uint64(w.parts * (w.parts + 1) / 2)
	return binary.LittleEndian.Uint64(out[seqLen:]) == ref+seq*terms
}

// result16 builds a checksum handler's output: the request sequence, then
// the value.
func result16(seq, v uint64) []byte {
	out := make([]byte, 2*seqLen)
	binary.LittleEndian.PutUint64(out, seq)
	binary.LittleEndian.PutUint64(out[seqLen:], v)
	return out
}

// handler builds f's handler. With a tracer it stamps the handler's start,
// the return of its input call and both sides of its Put into the request's
// trace record; with tr == nil (every end-to-end run) it reads no clock.
func (w *workload) handler(f fnSpec, tr *tracer) core.Handler {
	return func(ctx *core.Context) error {
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		var in []byte
		var list [][]byte
		var err error
		if f.kind == kindSum {
			list, err = ctx.InputList(f.in)
			if err == nil && len(list) != w.parts {
				err = fmt.Errorf("bench: %s got %d inputs, want %d", f.name, len(list), w.parts)
			}
			if err == nil {
				in = list[0]
			}
		} else {
			in, err = ctx.Input(f.in)
		}
		if err != nil {
			return err
		}
		if len(in) < seqLen {
			return fmt.Errorf("bench: %s input of %d bytes has no sequence header", f.name, len(in))
		}
		seq := binary.LittleEndian.Uint64(in)
		var st *instStamp
		if tr != nil {
			if st = tr.stamp(seq, f.slot+ctx.Instance.Idx); st != nil {
				st.start.Store(t0)
				st.inputRet.Store(tr.now())
			}
		}
		var out []byte
		var parts [fanParts][]byte
		switch f.kind {
		case kindEcho:
			out = in
		case kindSplit:
			for i := 0; i < w.parts; i++ {
				parts[i] = w.segment(in, i)
			}
		case kindCRC:
			out = result16(seq, seq*uint64(ctx.Instance.Idx+1)+uint64(crc32.ChecksumIEEE(in[seqLen:])))
		case kindSum:
			var sum uint64
			for _, r := range list {
				if len(r) != 2*seqLen {
					return fmt.Errorf("bench: %s got a %d byte partial result", f.name, len(r))
				}
				sum += binary.LittleEndian.Uint64(r[seqLen:])
			}
			out = result16(seq, sum)
		}
		if st != nil {
			st.putStart.Store(tr.now())
		}
		if f.kind == kindSplit {
			err = ctx.PutForeach(f.out, parts[:w.parts])
		} else {
			err = ctx.Put(f.out, out)
		}
		if st != nil {
			st.putRet.Store(tr.now())
		}
		return err
	}
}

// deployment is one built system: the engine plus whatever hosts its sinks.
type deployment struct {
	w       *workload
	sys     *core.System
	nodes   []*cluster.Node     // in-process nodes
	workers []*workerProc       // sink-hosting OS processes
	remotes []*transport.Client // the engine's one connection per worker
	timed   []*timedClient      // the same connections as a traced run's engine sees them
	timing  atomic.Bool         // on while the traced window runs
	// wedged is set once a request has outlived its drain timeout: Shutdown
	// waits for every instance, so close leaves such an engine to the
	// process's exit.
	wedged bool
	// coldStartsAtDeploy is the registry's cold-start count when the
	// deployment was built; containers are never reaped here, so the count
	// since is the deployment's container peak.
	coldStartsAtDeploy int64
}

// deploy parses the workflow, builds the cluster (spawning, listening and
// dialing the workers of a TCP workload), creates the System in its default
// configuration and registers the untraced handlers. A traced run's engine
// reaches its workers through timedClients.
func (w *workload) deploy(traced bool) (d *deployment, err error) {
	d = &deployment{w: w}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	d.coldStartsAtDeploy = obs.Default().Snapshot().Counters["cluster_cold_starts_total"]
	wf, err := workflow.ParseDSLString(w.dsl)
	if err != nil {
		return nil, err
	}
	cl := cluster.NewCluster(nil)
	for i := 0; i < w.nodes; i++ {
		n := cluster.NewNode(fmt.Sprintf("w%d", i+1), cluster.Options{})
		d.nodes = append(d.nodes, n)
		if err := cl.AddNode(n); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.workers; i++ {
		name := fmt.Sprintf("w%d", i+1)
		p, err := spawnWorker(name)
		if err != nil {
			return nil, err
		}
		d.workers = append(d.workers, p)
		c, err := transport.DialTCP(context.Background(), p.addr, name, transport.DialOptions{})
		if err != nil {
			return nil, fmt.Errorf("dial worker %s: %w", name, err)
		}
		d.remotes = append(d.remotes, c)
		var dp transport.Transport = c
		if traced {
			tc := &timedClient{Client: c, on: &d.timing}
			d.timed = append(d.timed, tc)
			dp = tc
		}
		if err := cl.AddNode(cluster.NewRemoteNode(name, dp, false, cluster.Options{})); err != nil {
			return nil, err
		}
	}
	d.sys, err = core.NewSystem(core.Config{Workflow: wf, Cluster: cl, DefaultSpec: benchSpec})
	if err != nil {
		return nil, err
	}
	return d, d.register(nil)
}

// register installs every handler, traced when tr is non-nil.
func (d *deployment) register(tr *tracer) error {
	for _, f := range d.w.fns {
		if err := d.sys.Register(f.name, d.w.handler(f, tr)); err != nil {
			return err
		}
	}
	return nil
}

// timedClient is the engine's connection to one worker with a clock around
// the two RPCs that sit on an edge. It measures, from outside both the
// engine and the transport, what an RPC costs under the workload's own
// load: the idle rung plus the wait for the Client's single mutex and, on a
// busy box, for a CPU on either side. Embedding keeps every other method —
// ObservedBps included, which feeds Eq. 1 — the Client's own.
type timedClient struct {
	*transport.Client
	on        *atomic.Bool
	mu        sync.Mutex
	land, get hist
}

func (t *timedClient) observe(h *hist, t0 time.Time) {
	d := time.Since(t0)
	t.mu.Lock()
	h.add(int64(d))
	t.mu.Unlock()
}

func (t *timedClient) Land(ctx context.Context, pace transport.Pacing, req wmm.PutReq) error {
	if t.on.Load() {
		defer t.observe(&t.land, time.Now())
	}
	return t.Client.Land(ctx, pace, req)
}

func (t *timedClient) Get(ctx context.Context, key wmm.Key) (dataflow.Value, bool, error) {
	if t.on.Load() {
		defer t.observe(&t.get, time.Now())
	}
	return t.Client.Get(ctx, key)
}

// loadedRPC merges the deployment's timedClients: the median Land and Get
// in microseconds as the engine saw them during the traced window (0
// without workers).
func (d *deployment) loadedRPC() (landUS, getUS float64) {
	var land, get hist
	for _, t := range d.timed {
		t.mu.Lock()
		land.merge(&t.land)
		get.merge(&t.get)
		t.mu.Unlock()
	}
	return land.quantile(0.5) / 1e3, get.quantile(0.5) / 1e3
}

// residentBytes is what the sinks still hold: the in-process sinks' gauges
// plus each worker's, refreshed by a Ping.
func (d *deployment) residentBytes() (int64, error) {
	var total int64
	for _, n := range d.nodes {
		total += n.Sink.MemBytes()
	}
	for _, c := range d.remotes {
		if err := c.Ping(context.Background()); err != nil {
			return 0, err
		}
		total += c.MemBytes()
	}
	return total, nil
}

// cpuTime is the user+system CPU consumed so far by the benchmark process
// and the deployment's workers.
func (d *deployment) cpuTime() (time.Duration, error) {
	total, err := selfCPU()
	if err != nil {
		return 0, err
	}
	for _, p := range d.workers {
		c, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// close shuts the engine down (unless wedged), drops the connections and
// kills the workers, returning once every worker process has been reaped.
func (d *deployment) close() {
	if d.sys != nil && !d.wedged {
		d.sys.Shutdown()
	}
	for _, c := range d.remotes {
		c.Close() //nolint:errcheck // Client.Close never fails
	}
	for _, p := range d.workers {
		p.stop()
	}
}

// workerStderr is what the workers wrote to stderr, for a failure report.
func (d *deployment) workerStderr() string {
	var b bytes.Buffer
	for _, p := range d.workers {
		if p.stderr.Len() > 0 {
			fmt.Fprintf(&b, "--- worker %s stderr ---\n%s", p.name, p.stderr.String())
		}
	}
	return b.String()
}
