package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wmm"
	"repro/internal/workflow"
)

// fanDSL fans one request over three b instances whose outputs merge into
// c's LIST input: c is not ready until every piece has landed on its pinned
// node, which is exactly the window a node death must be replayed in.
const fanDSL = `
workflow fan
function a
  input in from $USER
  output parts type FOREACH to b.part
function b
  input part
  output piece type MERGE to c.list
function c
  input list type LIST
  output out to $USER
`

// newFaultSystem builds the fan workflow on nodes workers with two replicas
// per function and the fault-tolerance plane on. gate, when non-nil, holds
// every b instance except index 0 until released — holding the request open
// with piece 0 already landed on c's pin.
func newFaultSystem(t testing.TB, nodes int, gate *faultGate, cfgMut func(*Config)) *System {
	t.Helper()
	return newFaultSystemOf(t, nodes, gate, cfgMut, cluster.NewNode)
}

// newFaultSystemOf is newFaultSystem with each worker built by newNode.
func newFaultSystemOf(t testing.TB, nodes int, gate *faultGate, cfgMut func(*Config), newNode nodeFunc) *System {
	t.Helper()
	wf, err := workflow.ParseDSLString(fanDSL)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workflow:      wf,
		DefaultSpec:   cluster.Spec{MemoryMB: 10 * 1024},
		FaultTolerant: true,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	cl := cluster.NewCluster(cluster.RoundRobin{Replicas: 2})
	for i := 1; i <= nodes; i++ {
		if err := cl.AddNode(newNode(fmt.Sprintf("w%d", i), cluster.Options{
			Clock: cfg.Clock, // one clock for engine and nodes
		})); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Cluster = cl
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.Register("a", func(ctx *Context) error {
		in, err := ctx.Input("in")
		if err != nil {
			return err
		}
		return ctx.PutForeach("parts", [][]byte{
			append([]byte(nil), in...),
			[]byte("mid"),
			[]byte("tail"),
		})
	}))
	must(sys.Register("b", func(ctx *Context) error {
		part, err := ctx.Input("part")
		if err != nil {
			return err
		}
		if gate != nil && ctx.Instance.Idx != 0 {
			gate.hold(ctx)
		}
		return ctx.Put("piece", part)
	}))
	must(sys.Register("c", func(ctx *Context) error {
		parts, err := ctx.InputList("list")
		if err != nil {
			return err
		}
		joined := make([]string, len(parts))
		for i, p := range parts {
			joined[i] = string(p)
		}
		return ctx.Put("out", []byte(strings.Join(joined, ",")))
	}))
	return sys
}

// faultGate holds b runs until released and keeps each held run's Context
// by request: while a run is held its request is live, so a test reads the
// request's pins through it (Context.pinnedNode).
type faultGate struct {
	open chan struct{}
	mu   sync.Mutex
	held map[string]*Context // a held run's Context, by request id
}

func newFaultGate() *faultGate {
	return &faultGate{open: make(chan struct{}), held: map[string]*Context{}}
}

// hold parks the run until the gate is released.
func (g *faultGate) hold(ctx *Context) {
	g.mu.Lock()
	if g.held != nil {
		g.held[ctx.ReqID()] = ctx
	}
	g.mu.Unlock()
	<-g.open
}

// release lets every held run go; their Contexts are no longer readable.
func (g *faultGate) release() {
	g.mu.Lock()
	g.held = nil
	g.mu.Unlock()
	close(g.open)
}

// waitPinned polls, through a held run of the request, until fn is pinned
// for it and returns the node.
func waitPinned(t *testing.T, g *faultGate, inv *Invocation, fn string) string {
	t.Helper()
	var pinned string
	until(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		ctx := g.held[inv.ReqID()]
		if ctx == nil {
			return false
		}
		n, ok := ctx.pinnedNode(fn)
		pinned = n
		return ok
	}, fn+" never pinned")
	return pinned
}

// waitLanded waits, through a held run of the request, until piece 0 is in
// node's sink and on the request's arrival log, unfetched: what a node death
// loses and a repair replays.
func waitLanded(t *testing.T, g *faultGate, inv *Invocation, node *cluster.Node) {
	t.Helper()
	until(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		ctx := g.held[inv.ReqID()]
		if ctx == nil {
			return false
		}
		r := ctx.req
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.arrivals.NextUnfetched(-1, func(n *cluster.Node) bool { return n == node }) >= 0
	}, "piece 0 never landed on c's pin")
}

// runNodes records the node every run of the wrapped functions executed on,
// by request id and function.
type runNodes struct {
	mu    sync.Mutex
	nodes map[string][]string // "<req id>/<fn>" -> run nodes, in run order
}

// recordRuns wraps the registered handlers of fns to record where each run
// executed.
func recordRuns(sys *System, fns ...string) *runNodes {
	rn := &runNodes{nodes: map[string][]string{}}
	for _, fn := range fns {
		h := sys.fns[fn].handlerFn()
		_ = sys.Register(fn, func(ctx *Context) error {
			rn.mu.Lock()
			k := ctx.ReqID() + "/" + ctx.Instance.Fn
			rn.nodes[k] = append(rn.nodes[k], ctx.node())
			rn.mu.Unlock()
			return h(ctx)
		})
	}
	return rn
}

// of returns the nodes fn's runs of the request executed on.
func (rn *runNodes) of(inv *Invocation, fn string) []string {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return slices.Clone(rn.nodes[inv.ReqID()+"/"+fn])
}

// ranOnlyOff fails the test unless fn ran want times for the request, none
// of them on node.
func ranOnlyOff(t *testing.T, rn *runNodes, inv *Invocation, fn string, want int, node string) {
	t.Helper()
	ran := rn.of(inv, fn)
	if len(ran) != want || slices.Contains(ran, node) {
		t.Fatalf("%s ran on %v, want %d runs, none on %s", fn, ran, want, node)
	}
}

// TestFailoverReplaysLostShipment kills the node holding a request's only
// landed-but-unconsumed piece and requires the engine to repair the pin and
// replay exactly that piece onto a survivor. The sinks are remote: only a
// remote land leaves a datum a node death can lose.
func TestFailoverReplaysLostShipment(t *testing.T) {
	gate := newFaultGate()
	sys := newFaultSystemOf(t, 3, gate, nil, sinkNode)
	defer sys.Shutdown()
	runs := recordRuns(sys, "c")
	replays0 := sys.Replays()

	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("head")})
	if err != nil {
		t.Fatal(err)
	}
	cPin := waitPinned(t, gate, inv, "c")
	cNode, _ := sys.cfg.Cluster.Node(cPin)
	// Make sure b[0]'s piece has actually landed in c's pinned sink before
	// the kill, so the kill demonstrably loses data.
	waitLanded(t, gate, inv, cNode)

	if err := sys.cfg.Cluster.FailNode(cPin); err != nil {
		t.Fatal(err)
	}
	gate.release() // release b[1], b[2]; their ships detect the dead pin

	if err := inv.Wait(); err != nil {
		t.Fatalf("request did not survive the node kill: %v", err)
	}
	out, _ := inv.OutputBytes("out")
	if string(out) != "head,mid,tail" {
		t.Fatalf("out = %q after replay", out)
	}
	if sys.Replays()-replays0 < 1 {
		t.Fatal("no shipment was replayed")
	}
	ranOnlyOff(t, runs, inv, "c", 1, cPin)
}

// TestFailoverLeavesPinWhenNothingRoutable pins c on its non-primary
// replica (w1 of [w3 w1]: w3 drains while the request pins, then recovers),
// lands a piece there and fails the whole cluster. While nothing is
// routable a repair has nowhere better to go: the pin must stay put and
// nothing may be "replayed" into the equally dead primary's sink. The sinks
// are remote, where a piece lands.
func TestFailoverLeavesPinWhenNothingRoutable(t *testing.T) {
	gate := newFaultGate()
	sys := newFaultSystemOf(t, 3, gate, nil, sinkNode)
	defer sys.Shutdown()
	runs := recordRuns(sys, "c")
	replays0 := sys.Replays()
	cl := sys.cfg.Cluster
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	must(cl.DrainNode("w3"))
	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("head")})
	must(err)
	if cPin := waitPinned(t, gate, inv, "c"); cPin != "w1" {
		t.Fatalf("c pinned to %s, want the non-primary w1", cPin)
	}
	w1, _ := cl.Node("w1")
	waitLanded(t, gate, inv, w1)
	must(cl.RecoverNode("w3"))
	w3, _ := cl.Node("w3")
	putsBefore := sinkOf(w3).Stats().Puts

	for _, name := range []string{"w1", "w2", "w3"} {
		must(cl.FailNode(name))
	}
	gate.release() // b[1], b[2] ship towards c and touch the dead pin

	// The sinks behind transport.Inproc still answer while marked Down, so the
	// request limps to an end either way; what matters is what the repairs
	// did meanwhile.
	_ = inv.Wait()
	if ran := runs.of(inv, "c"); len(ran) != 1 || ran[0] != "w1" {
		t.Fatalf("c ran on %v with nothing routable, want its unmoved pin [w1]", ran)
	}
	if n := sys.Replays() - replays0; n != 0 {
		t.Fatalf("%d pieces replayed into a dead sink", n)
	}
	if got := sinkOf(w3).Stats().Puts; got != putsBefore {
		t.Fatalf("dead primary's sink took %d puts", got-putsBefore)
	}
}

// TestSelectReplicaBackfillsPastTheSet fails c's whole replica set ([w3 w4]):
// the pick backfills from the cluster at large — least loaded, first on a
// tie — under an ordinal past the set, so the backfilled node's sink keys
// cannot collide with a member's; the request completes there.
func TestSelectReplicaBackfillsPastTheSet(t *testing.T) {
	sys := newFaultSystem(t, 4, nil, nil)
	defer sys.Shutdown()
	for _, name := range []string{"w3", "w4"} {
		if err := sys.cfg.Cluster.FailNode(name); err != nil {
			t.Fatal(err)
		}
	}
	n, ordinal, ok := sys.selectReplica(sys.fns["c"], nil)
	if !ok || n.Name != "w1" || ordinal != 2 {
		t.Fatalf("selectReplica(c) = %s, %d, %v; want w1 under ordinal 2", n.Name, ordinal, ok)
	}
	runs := recordRuns(sys, "c")
	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("head")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran := runs.of(inv, "c"); len(ran) != 1 || ran[0] != "w1" && ran[0] != "w2" {
		t.Fatalf("c ran on %v, want one run on a live node outside its dead replica set", ran)
	}
}

// hookClock is the wall clock with a callback in front of every Sleep — the
// seam for acting inside the limiter park that paces a shipment.
type hookClock struct {
	clock.Wall
	onSleep func(time.Duration)
}

func (h hookClock) Sleep(d time.Duration) { h.onSleep(d); h.Wall.Sleep(d) }

// hookTransport runs a callback in front of every ShipBatch it delegates —
// the seam for acting between a shipment's routing and its put.
type hookTransport struct {
	transport.Transport
	onShip func(reqs []wmm.PutReq)
}

func (h hookTransport) ShipBatch(ctx context.Context, pace transport.Pacing, reqs []wmm.PutReq) error {
	h.onShip(reqs)
	return h.Transport.ShipBatch(ctx, pace, reqs)
}

// TestFailoverRelandsMultiItemEdge fails a's FOREACH destination after the
// three-item edge was routed and before it lands: FailNode wipes the sink
// first, so the put lands behind the wipe. The land must reclaim it and
// re-land the batch item by item on a survivor — each part arriving exactly
// once, nothing replayed (nothing had landed) — and the request must
// complete and drain.
func TestFailoverRelandsMultiItemEdge(t *testing.T) {
	var sys *System
	var once sync.Once
	var dead string
	sinks := map[string]*wmm.Sink{}
	start := time.Now()
	elapsed := func() time.Duration { return time.Since(start) }
	newNode := func(name string, opts cluster.Options) *cluster.Node {
		sinks[name] = wmm.NewSink(wmm.Options{})
		return cluster.NewRemoteNode(name, hookTransport{
			Transport: transport.NewInproc(sinks[name], nil, elapsed),
			onShip: func(reqs []wmm.PutReq) {
				if len(reqs) == 0 || reqs[0].Key.Fn != "b" {
					return
				}
				once.Do(func() { // this node takes b's items: it is b's pin
					dead = name
					_ = sys.cfg.Cluster.FailNode(dead)
				})
			},
		}, false, opts)
	}
	sys = newFaultSystemOf(t, 3, nil, func(c *Config) { c.Obs = ObsConfig{SampleEvery: 1} }, newNode)
	defer sys.Shutdown()
	runs := recordRuns(sys, "b")
	replays0 := sys.Replays()
	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("head")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatalf("request did not survive the kill between ship and land: %v", err)
	}
	if out, _ := inv.OutputBytes("out"); string(out) != "head,mid,tail" {
		t.Fatalf("out = %q", out)
	}
	if dead == "" {
		t.Fatal("b's pin was never failed under its shipment")
	}
	ranOnlyOff(t, runs, inv, "b", 3, dead)
	arrived := map[int]int{}
	for _, st := range sys.ring.Stages(inv.ReqID()) {
		if st.Kind == obs.DataArrived && st.Fn == "b" {
			arrived[st.Idx]++
		}
	}
	if replays := sys.Replays() - replays0; len(arrived) != 3 || arrived[0] != 1 || arrived[1] != 1 || arrived[2] != 1 || replays != 0 {
		t.Fatalf("parts arrived %v with %d replays, want each of 3 once and none replayed", arrived, replays)
	}
	if got := sys.PendingInvocations(); got != 0 {
		t.Fatalf("%d invocations still tracked", got)
	}
	for name, sink := range sinks {
		if mem, disk := sink.MemBytes(), sink.DiskBytes(); mem != 0 || disk != 0 {
			t.Fatalf("node %s holds %d mem / %d disk bytes after a clean completion", name, mem, disk)
		}
	}
}

// TestFailoverLandBehindTheWipeIsReclaimed fails a's destination after the
// land's health check — inside the limiter park that paces the edge. In
// process the land puts nothing, so nothing lands behind FailNode's wipe: b
// must run off the dead node, with nothing replayed and nothing left. A
// remote put that lands behind the wipe is TestFailoverRelandsMultiItemEdge's.
func TestFailoverLandBehindTheWipeIsReclaimed(t *testing.T) {
	var sys *System
	var once sync.Once
	var dead string
	// a's running Context: the park is its inline ship's, on its goroutine.
	var aRun atomic.Pointer[Context]
	sys = newFaultSystem(t, 3, nil, func(c *Config) {
		c.DefaultSpec = cluster.Spec{MemoryMB: 128} // 5 MB/s: 16 KiB parks the TC class for 3.3 ms
		c.DisablePressure = true                    // the only sleeper is the limiter
		c.Clock = hookClock{onSleep: func(time.Duration) {
			once.Do(func() {
				if ctx := aRun.Load(); ctx != nil {
					dead, _ = ctx.pinnedNode("b")
					_ = sys.cfg.Cluster.FailNode(dead)
				}
			})
		}}
	})
	defer sys.Shutdown()
	a := sys.fns["a"].handlerFn()
	_ = sys.Register("a", func(ctx *Context) error {
		aRun.Store(ctx)
		defer aRun.Store(nil)
		return a(ctx)
	})
	runs := recordRuns(sys, "b")
	replays0 := sys.Replays()
	head := strings.Repeat("h", 16<<10)
	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte(head)})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatalf("request did not survive the kill between check and put: %v", err)
	}
	if out, _ := inv.OutputBytes("out"); string(out) != head+",mid,tail" {
		t.Fatalf("out = %d bytes, want the three parts joined", len(out))
	}
	if dead == "" {
		t.Fatal("b's pin was never failed inside the park")
	}
	ranOnlyOff(t, runs, inv, "b", 3, dead)
	if n := sys.Replays() - replays0; n != 0 {
		t.Fatalf("%d replays: the shipment was recorded on the dead node instead of re-landed", n)
	}
	requireSinksDrained(t, sys)
}

// nodeFunc builds one worker node: cluster.NewNode, or sinkNode.
type nodeFunc = func(name string, opts cluster.Options) *cluster.Node

// sinkNodes holds the sink behind every node sinkNode built, which as a
// remote node has no Sink field of its own.
var sinkNodes sync.Map // *cluster.Node -> *wmm.Sink

// sinkNode builds a node whose sink sits behind a plain transport.Inproc
// addressed as remote (cluster.NewRemoteNode): the engine lands, records,
// consumes, sweeps and replays there as toward a worker process — in process
// nothing enters a sink — while the test reads the sink in place (sinkOf).
func sinkNode(name string, opts cluster.Options) *cluster.Node {
	sink := wmm.NewSink(wmm.Options{TTL: opts.SinkTTL})
	var n *cluster.Node
	n = cluster.NewRemoteNode(name, transport.NewInproc(sink, nil, func() time.Duration { return n.Elapsed() }), false, opts)
	sinkNodes.Store(n, sink)
	return n
}

// sinkOf is the node's sink: its own, or the one sinkNode put behind it.
func sinkOf(n *cluster.Node) *wmm.Sink {
	if n.Sink != nil {
		return n.Sink
	}
	sink, _ := sinkNodes.Load(n)
	return sink.(*wmm.Sink)
}

// requireSinksDrained fails the test if a request is still tracked or any
// node's sink still holds bytes in either tier (resident or spilled).
func requireSinksDrained(t *testing.T, sys *System) {
	t.Helper()
	if got := sys.PendingInvocations(); got != 0 {
		t.Fatalf("%d invocations still tracked", got)
	}
	for _, name := range sys.cfg.Cluster.Nodes() {
		node, _ := sys.cfg.Cluster.Node(name)
		if mem, disk := sinkOf(node).MemBytes(), sinkOf(node).DiskBytes(); mem != 0 || disk != 0 {
			t.Fatalf("node %s holds %d mem / %d disk bytes after clean completions", name, mem, disk)
		}
	}
}

// TestFailoverNodeKillMidRun is the availability criterion: with a fleet of
// requests held open, killing one node must not fail any of them — every
// in-flight request completes (>= 95% required; replay delivers 100%). The
// sinks are remote, so the kill loses landed pieces the repair replays.
func TestFailoverNodeKillMidRun(t *testing.T) {
	sys, invs := killMidRun(t, sinkNode)
	completed := 0
	for i, inv := range invs {
		if err := inv.Wait(); err != nil {
			t.Errorf("req %d failed: %v", i, err)
			continue
		}
		out, _ := inv.OutputBytes("out")
		if want := fmt.Sprintf("p%d,mid,tail", i); string(out) != want {
			t.Errorf("req %d out = %q, want %q", i, out, want)
			continue
		}
		completed++
	}
	if completed < len(invs)*95/100 {
		t.Fatalf("only %d/%d in-flight requests completed", completed, len(invs))
	}
	if sys.Replays() == 0 {
		t.Fatal("node kill mid-run triggered no replays")
	}
}

// TestInprocNodeKillMidRunLosesNothing is the same kill in process, where a
// landed piece waits in its request's tracker, not in the node's sink: the
// kill loses nothing, so every request completes with the right output,
// nothing is replayed and nothing is left behind.
func TestInprocNodeKillMidRunLosesNothing(t *testing.T) {
	sys, invs := killMidRun(t, cluster.NewNode)
	for i, inv := range invs {
		if err := inv.Wait(); err != nil {
			t.Fatalf("req %d failed: %v", i, err)
		}
		if out, _ := inv.OutputBytes("out"); string(out) != fmt.Sprintf("p%d,mid,tail", i) {
			t.Fatalf("req %d out = %q", i, out)
		}
	}
	if n := sys.Replays(); n != 0 {
		t.Fatalf("%d replays: an in-process kill has nothing to replay", n)
	}
	if puts := sys.SinkStats().Puts; puts != 0 {
		t.Fatalf("%d sink puts in process", puts)
	}
	requireSinksDrained(t, sys)
}

// killMidRun holds 40 fan requests open over nodes built by newNode, each
// with c pinned, kills the last one's c pin and releases the held runs.
func killMidRun(t *testing.T, newNode nodeFunc) (*System, []*Invocation) {
	t.Helper()
	gate := newFaultGate()
	sys := newFaultSystemOf(t, 3, gate, func(c *Config) {
		// Plenty of containers for the gated b instances of all requests.
		c.MaxContainersPerFn = 256
	}, newNode)
	t.Cleanup(sys.Shutdown)

	invs := make([]*Invocation, 40)
	for i := range invs {
		inv, err := sys.Invoke(map[string][]byte{"a.in": []byte(fmt.Sprintf("p%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		invs[i] = inv
	}
	// Every request must have pinned c (piece 0 shipped) before the kill.
	var victim string
	for _, inv := range invs {
		victim = waitPinned(t, gate, inv, "c")
	}

	if err := sys.cfg.Cluster.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	gate.release()
	return sys, invs
}

// TestFailoverKillPinnedReplicaMidTransfer combines the transfer-failure
// injector with FailNode: the stream to b's pinned replica is cut mid-way
// and the replica declared dead during the same shipment. The resumed
// transfer must land on a survivor and the request complete.
func TestFailoverKillPinnedReplicaMidTransfer(t *testing.T) {
	wf, err := workflow.ParseDSLString(chainDSL)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(cluster.RoundRobin{Replicas: 2})
	for i := 1; i <= 3; i++ {
		if err := cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{})); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := NewSystem(Config{
		Workflow:      wf,
		Cluster:       cl,
		DefaultSpec:   cluster.Spec{MemoryMB: 10 * 1024},
		FaultTolerant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10) // well past the socket threshold
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := sys.Register("a", func(ctx *Context) error {
		in, err := ctx.Input("in")
		if err != nil {
			return err
		}
		_ = in
		return ctx.Put("x", payload)
	}); err != nil {
		t.Fatal(err)
	}
	var bRanOn atomic.Value // string: the node b's run executed on
	if err := sys.Register("b", func(ctx *Context) error {
		bRanOn.Store(ctx.node())
		x, err := ctx.Input("x")
		if err != nil {
			return err
		}
		return ctx.Put("out", []byte(fmt.Sprint(len(x))))
	}); err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	// The injector cuts the first attempt of the a->b stream and, in the
	// same breath, declares the destination node dead.
	var once sync.Once
	var killed atomic.Value // string: the failed node
	sys.SetTransferFailureInjector(func(streamID string) int64 {
		if !strings.Contains(streamID, "->b[") {
			return -1
		}
		cut := int64(-1)
		once.Do(func() {
			cut = 64 << 10
			// b is pinned by now (the ship pinned it before streaming).
			for _, name := range cl.Nodes() {
				n, _ := cl.Node(name)
				if n.Containers("a") == 0 && n.Routable() {
					// Fail the first routable node that isn't hosting a; if
					// it happens not to be b's pin the kill is still a valid
					// chaos input — the assertion below checks b's landing
					// node is alive, whichever node died.
					killed.Store(name)
					_ = cl.FailNode(name)
					break
				}
			}
		})
		return cut
	})

	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("go")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatalf("request did not survive mid-transfer kill: %v", err)
	}
	out, _ := inv.OutputBytes("out")
	if string(out) != fmt.Sprint(len(payload)) {
		t.Fatalf("out = %q", out)
	}
	if dead, ok := killed.Load().(string); ok {
		if ran := bRanOn.Load(); ran == dead {
			t.Fatalf("b ran on the node killed mid-transfer (%s)", dead)
		}
	} else {
		t.Fatal("injector never fired")
	}
}

// TestDrainUnderLoad drains a node while requests pinned to it are held
// open: those requests must complete on the draining node (its data stays),
// and no request admitted after the drain may pin it.
func TestDrainUnderLoad(t *testing.T) {
	gate := newFaultGate()
	sys := newFaultSystem(t, 3, gate, func(c *Config) {
		c.MaxContainersPerFn = 256
	})
	defer sys.Shutdown()
	runs := recordRuns(sys, "a", "b", "c")

	const n = 12
	invs := make([]*Invocation, n)
	for i := range invs {
		inv, err := sys.Invoke(map[string][]byte{"a.in": []byte(fmt.Sprintf("p%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		invs[i] = inv
	}
	victim := waitPinned(t, gate, invs[0], "c")
	before := sys.Replays()

	if err := sys.cfg.Cluster.DrainNode(victim); err != nil {
		t.Fatal(err)
	}

	// Release the held-open work, then check that no request admitted after
	// the drain pins the draining node — even with its replicas still in
	// every function's set.
	gate.release()
	for i := 0; i < 8; i++ {
		inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("late")})
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, fn := range []string{"a", "b", "c"} {
			if ran := runs.of(inv, fn); len(ran) == 0 || slices.Contains(ran, victim) {
				t.Fatalf("request admitted after drain ran %s on %v, want it run and never on draining node %s", fn, ran, victim)
			}
		}
	}

	// The held-open requests complete in place: no replays, no failures.
	for i, inv := range invs {
		if err := inv.Wait(); err != nil {
			t.Fatalf("in-flight req %d failed under DrainNode: %v", i, err)
		}
	}
	if sys.Replays() != before {
		t.Fatal("drain triggered replays; draining must finish in place")
	}
}

// TestChaosInvokeVsFailRecover is the CI chaos storm: requests stream in
// over two-replica sets while two nodes flap between Down/Up (and an
// occasional drain). Every request must complete correctly — replay may not
// lose or fail a single one — and every sink must drain. Run under -race.
func TestChaosInvokeVsFailRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test")
	}
	sys := newFaultSystem(t, 4, nil, nil)
	defer sys.Shutdown()
	cl := sys.cfg.Cluster

	stopChaos := flapNodes(cl, 2*time.Millisecond, true)

	const goroutines, perG = 8, 40
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
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
				out, _ := inv.OutputBytes("out")
				if want := in + ",mid,tail"; string(out) != want {
					errs[g] = fmt.Errorf("req %s: out %q", in, out)
					return
				}
			}
		}()
	}
	wg.Wait()
	stopChaos()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	requireSinksDrained(t, sys)
}

// flapNodes flaps w3 and w4 in turn until the returned stop is called, and
// recovers both before stop returns; w1 and w2 stay up, so there is always
// healthy capacity. Each flap fails its node — or drains it, every third
// flap, when drain is set — for down, then recovers it for half that.
func flapNodes(cl *cluster.Cluster, down time.Duration, drain bool) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for i := 0; ; i++ {
			select {
			case <-quit:
				_ = cl.RecoverNode("w3")
				_ = cl.RecoverNode("w4")
				return
			default:
			}
			flap, pause := i/2, down
			victim := [2]string{"w3", "w4"}[flap%2]
			switch {
			case i%2 == 1:
				_ = cl.RecoverNode(victim)
				pause = down / 2
			case drain && flap%3 == 2:
				_ = cl.DrainNode(victim)
			default:
				_ = cl.FailNode(victim)
			}
			// The chaos keeps wall time beside a storm that never waits for
			// it: how long a node stays down is what varies the failure mix,
			// and no assertion reads it.
			time.Sleep(pause)
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}
