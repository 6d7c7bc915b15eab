//repolint:hotpath the Invoke/schedule path holds the 2 allocs/req ceiling (1 measured on the warm chain, TestInvokeAllocsCeiling); see the hotpath analyzer

// Package core is the runtime-plane implementation of the DataFlower
// scheme: the paper's primary contribution as an embeddable Go library.
//
// A System deploys one workflow onto a cluster of in-process worker nodes.
// Each function's container is abstracted into a Function Logic Unit (the
// registered Handler, executed by the FLU executor) and a Data Logic Unit
// (a per-container daemon that ships the handler's outputs asynchronously
// through pipe connectors into the destination's Wait-Match Memory).
// Functions are triggered by data availability — an instance runs as soon
// as all of its input data has landed — with no central orchestrator: each
// node's engine reacts to arrivals, mirroring the decentralized workflow
// engine of §6.
//
// The engine implements the paper's mechanisms:
//
//   - computation/communication overlap: Handler.Put hands data to the DLU
//     and returns; the container can serve the next invocation while the
//     DLU pumps (§5.1). A transmission too short to hide — a small datum
//     landing in-process under no Eq. 1 pressure — the FLU's goroutine
//     ships itself, and runs the consumer it made ready when its own
//     measured compute is negligible (run to completion, dlu.go);
//   - pressure-aware function scaling: Pressure = α·Size/Bw − T_FLU; when
//     positive the FLU is callstack-blocked for that long and the engine
//     pre-warms an extra container (§5.2, Eq. 1);
//   - host-container collaborative communication: data lands before the
//     destination container exists — in process in the request's tracker,
//     the Wait-Match Memory of one address space, and on a remote node in
//     its wmm.Sink; local pipe, streaming pipe and <16 KB socket paths (§7);
//   - fault tolerance: handler failures are ReDone up to a retry limit and
//     interrupted transfers resume from the connector's incremental
//     checkpoints (§6.2);
package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/wmm"
	"repro/internal/workflow"
)

// Handler is a user function body (the FLU logic). It reads its inputs and
// emits outputs through the Context (the DLU interface).
type Handler func(ctx *Context) error

// DefaultMaxContainersPerFn bounds auto-scaling per function.
const DefaultMaxContainersPerFn = 32

// retryLimit is the ReDo budget per function instance and transfer.
const retryLimit = 2

// Config assembles a System.
type Config struct {
	Workflow *workflow.Workflow
	Cluster  *cluster.Cluster

	// DefaultSpec is every function's container specification (128 MB when
	// zero).
	DefaultSpec cluster.Spec

	// Alpha is Eq. 1's loss factor (cluster.DefaultAlpha when 0).
	Alpha float64 //repolint:testseam the Eq. 1 tests vary the loss factor; ROADMAP item 17 decides the ablation
	// DisablePressure turns off pressure-aware scaling (the
	// DataFlower-Non-aware ablation).
	DisablePressure bool //repolint:testseam the DataFlower-Non-aware ablation; ROADMAP item 17 decides whether programs set it
	// MaxContainersPerFn bounds per-function scale-out
	// (DefaultMaxContainersPerFn when 0).
	MaxContainersPerFn int //repolint:testseam the instance-cap tests need a cap small enough to reach
	// Obs configures sampled request tracing (obs.go). The zero value
	// disables sampling; the metric instruments are always on regardless.
	Obs ObsConfig
	// FaultTolerant enables the fault-tolerance plane (failover.go): replica
	// selection skips non-Up nodes, a dead pinned replica is detected at
	// ship/land/consume and repaired onto a survivor, and the data the dead
	// node's Wait-Match Memory lost is deterministically replayed there.
	// Requires per-request route pins, so it disables the static
	// single-owner fast path; when false the engine is byte-for-byte the
	// fault-oblivious one (health states are simply never consulted).
	FaultTolerant bool
	// Clock is the engine's time source: invocation timestamps and the
	// epoch-relative trace clock go through it, so a test can drive the
	// engine in virtual time with clock.NewManual. Nil means the wall clock.
	Clock clock.Clock //repolint:testseam tests drive the engine on clock.Manual
}

// System is one deployed workflow. Its control path takes no system-global
// lock: request state lives in a request record (request.go), function state
// in fnState records fixed at NewSystem with striped counters, and each
// container owns its DLU queue.
type System struct {
	cfg Config
	wf  *workflow.Workflow

	// fns is the per-function state by name (Register); immutable.
	fns    map[string]*fnState
	fnList []*fnState // indexed by workflow.Function.Index (declaration order)

	// static marks the single-owner fast path: one replica per function and
	// no fault tolerance, so every route is the primary and nothing is pinned.
	static bool

	// ft mirrors Config.FaultTolerant; replays counts replayed shipments
	// (lost to node deaths, re-landed on the repaired replica).
	ft      bool
	replays atomic.Int64

	// Sampled request tracing (Config.Obs): every sampleEvery-th request
	// records stage spans into ring (0: off).
	ring        *obs.SpanRing
	sampleEvery int64

	// hasRemote: some node's sink lives in another process, so shipsInline
	// checks each Put's destinations: an RPC never runs on an FLU's goroutine.
	hasRemote bool

	// routedNodes are the nodes hosting a function: on the static path the
	// only sinks a request's teardown sweeps (pinned requests sweep their pins).
	routedNodes []*cluster.Node

	// allNodes is every node known at NewSystem, in registration order (the
	// backfill universe past a replica set); nodeLoad holds the per-node
	// in-flight instance counts replica selection reads.
	allNodes []*cluster.Node
	nodeLoad map[*cluster.Node]*obs.Counter

	checkLog *pipe.CheckpointLog
	clk      clock.Clock
	epoch    time.Duration

	// Request-ID allocation (stripes.go): reqSeq is the shared sequence,
	// idPool hands out idBlocks, stripeSeq deals their stripe tags.
	reqSeq    atomic.Int64
	idPool    sync.Pool
	stripeSeq atomic.Uint32

	// handlersReady flips once every function has a handler: Invoke then
	// validates with one load.
	handlersReady atomic.Bool
	regMu         sync.Mutex // serializes Register bookkeeping (cold path)

	injector atomic.Pointer[func(streamID string) int64]

	// Executor pool (submitInstance): warm-stacked workers; execIdle counts
	// those guaranteed to pull the next job.
	execJobs chan instanceJob
	execIdle atomic.Int64

	// paceAt: every node paces on the engine's clock, so an inline ship may
	// price its wire charge at its run's starting reading.
	paceAt bool

	// Below, every word is written on one request stripe and owns its cache
	// line (TestStripedLayout): pendingInvs counts the requests admitted and
	// not torn down, gate everything in flight (stripes.go), and freeReqs is
	// each stripe's recycled engine state (request.go).
	_           [56]byte
	pendingInvs obs.Counter
	gate        gate
	freeReqs    [obs.NumStripes]reqFreeList
}

// fnState is one function's control-plane record, resolved at NewSystem:
// replica set, container spec, concurrency cap, handler and the running FLU
// execution-time average (T_FLU in Eq. 1).
type fnState struct {
	name string
	idx  int // workflow.Function.Index: the tracker's handle on the function
	spec cluster.Spec

	// replicas is the replica set placement returned, primary first. It never
	// changes: health is a per-pick predicate (selectReplica).
	replicas []*cluster.Node

	handler atomic.Pointer[Handler]
	// said[i] is the string the handler first named declared input i by
	// (Context.inputVals), set once.
	said []atomic.Pointer[string]

	// pools is the function's container pool on every node it may run on,
	// indexed by the replica ordinal selectReplica deals: the replica set,
	// then every node as a backfill (immutable).
	pools []*cluster.FnPool

	isBrief atomic.Bool // the caller-run gate's verdict, republished by observe
	// tfluPub is T_FLU as observe last published it, mean<<1 | 1 (zero: no
	// sample): Put reads Eq. 1's operand in one load of a read-mostly line.
	tfluPub atomic.Int64

	// Below, every word is written on one request stripe and owns its cache
	// line (TestStripedLayout). The counters' sums are torn across lanes,
	// which their pressure heuristics tolerate.
	cap      instanceCap
	fluNanos obs.Counter
	fluCount obs.Counter
	// blockedNanos is the time runs spent in the engine's throttle (Eq. 1
	// blocks, limiter parks), kept out of T_FLU; only a throttled run adds.
	blockedNanos obs.Counter
}

// primary returns the function's primary replica node.
func (f *fnState) primary() *cluster.Node { return f.replicas[0] }

// handlerFn returns the registered handler, or nil.
func (f *fnState) handlerFn() Handler {
	if p := f.handler.Load(); p != nil {
		return *p
	}
	return nil
}

// tfluPublished is the running average FLU execution time (T_FLU) and
// whether any run was sampled, as of observe's last publication: at most
// fifteen brief, unthrottled runs per stripe behind the exact mean.
func (f *fnState) tfluPublished() (avg time.Duration, sampled bool) {
	w := f.tfluPub.Load()
	return time.Duration(w >> 1), w != 0
}

// brief reports whether an Invoke caller may run f itself: f has a sample and
// its mean wall time per run is under continuationMaxTFLU. Wall time, not
// T_FLU — a function whose Put sleeps out Eq. 1's block computes nothing.
// The verdict is sampled (observe), so reading it is one load.
func (f *fnState) brief() bool { return f.isBrief.Load() }

// observe folds one handler execution of wall time d, blocked of it spent
// throttled, into the running averages, on the observing request's stripe,
// and republishes brief's verdict and T_FLU: on a stripe's first sample and
// every 16th, and at once after a run that was throttled or alone reached the
// gate — a function turning slow is seen by its next caller and its next Put,
// turning brief in sixteen. A word whose value holds is not rewritten: every
// core reads both, and a store of the same value still takes the line away.
func (f *fnState) observe(stripe uint32, d, blocked time.Duration) {
	f.fluNanos.Add(stripe, int64(d-blocked))
	if blocked > 0 {
		f.blockedNanos.Add(stripe, int64(blocked))
	}
	if n := f.fluCount.Add(stripe, 1); n == 1 || n&15 == 0 || blocked > 0 || d >= continuationMaxTFLU {
		runs, nanos := f.fluCount.Load(), f.fluNanos.Load()
		if w := nanos/runs<<1 | 1; f.tfluPub.Load() != w {
			f.tfluPub.Store(w)
		}
		if b := time.Duration((nanos+f.blockedNanos.Load())/runs) < continuationMaxTFLU; f.isBrief.Load() != b {
			f.isBrief.Store(b)
		}
	}
}

// NewSystem validates the workflow, places functions on the cluster's nodes
// and returns a System ready for Register/Invoke.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Workflow == nil || cfg.Cluster == nil {
		return nil, errors.New("core: Config needs Workflow and Cluster")
	}
	if err := cfg.Workflow.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = cluster.DefaultAlpha
	}
	if cfg.MaxContainersPerFn == 0 {
		cfg.MaxContainersPerFn = DefaultMaxContainersPerFn
	}
	if cfg.DefaultSpec.MemoryMB == 0 {
		cfg.DefaultSpec = cluster.Spec{MemoryMB: cluster.BaseMemoryMB}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewWall()
	}
	var fns []string
	for _, f := range cfg.Workflow.Functions {
		fns = append(fns, f.Name)
	}
	snap := cfg.Cluster.Place(fns)
	s := &System{
		cfg:      cfg,
		wf:       cfg.Workflow,
		checkLog: pipe.NewCheckpointLog(),
		clk:      cfg.Clock,
		epoch:    cfg.Clock.Now(),
		fns:      make(map[string]*fnState, len(fns)),
		paceAt:   reflect.TypeOf(cfg.Clock).Comparable(),
	}
	s.gate.wake = make(chan struct{}, 1)
	s.nodeLoad = make(map[*cluster.Node]*obs.Counter)
	for _, name := range cfg.Cluster.Nodes() {
		if n, ok := cfg.Cluster.Node(name); ok {
			s.allNodes = append(s.allNodes, n)
			s.nodeLoad[n] = new(obs.Counter)
			if n.Remote() {
				s.hasRemote = true
			}
			s.paceAt = s.paceAt && n.Clock() == cfg.Clock
		}
	}
	s.ft = cfg.FaultTolerant
	if cfg.Obs.SampleEvery > 0 {
		s.ring = obs.NewSpanRing(obs.DefaultSpanRingSize)
		s.sampleEvery = int64(cfg.Obs.SampleEvery)
		publishRing(s.ring)
	}
	// Fault tolerance needs per-request pins (a repair rewrites them), so it
	// rules out the static fast path.
	s.static = !s.ft
	seen := make(map[*cluster.Node]bool)
	for _, fn := range fns {
		reps := snap.Replicas(fn)
		if len(reps) == 0 {
			return nil, fmt.Errorf("core: placement left %s unassigned", fn)
		}
		nodes := make([]*cluster.Node, 0, len(reps))
		for _, r := range reps {
			node, ok := cfg.Cluster.Node(r.Node)
			if !ok {
				return nil, fmt.Errorf("core: routing maps %s to unknown node %q", fn, r.Node)
			}
			nodes = append(nodes, node)
		}
		if len(nodes) > 1 {
			s.static = false // a multi-replica placement needs per-request pins
		}
		st := &fnState{
			name:     fn,
			idx:      len(s.fnList),
			spec:     cfg.DefaultSpec,
			replicas: nodes,
		}
		st.cap.init(cfg.MaxContainersPerFn)
		for _, n := range append(nodes[:len(nodes):len(nodes)], s.allNodes...) {
			st.pools = append(st.pools, n.Pool(fn))
		}
		s.fns[fn] = st
		s.fnList = append(s.fnList, st)
		for _, node := range nodes {
			if !seen[node] {
				seen[node] = true
				s.routedNodes = append(s.routedNodes, node)
			}
		}
	}
	for i, f := range cfg.Workflow.Functions {
		s.fnList[i].said = make([]atomic.Pointer[string], len(f.Inputs))
	}
	// A worker carries a chain to completion (runChain), so a closed loop of
	// N clients holds N workers; past them each request pays a fresh
	// goroutine and stack. An idle worker costs a parked goroutine.
	workers := max(4*runtime.GOMAXPROCS(0), 32)
	s.execJobs = make(chan instanceJob, workers)
	s.execIdle.Store(int64(workers))
	for i := 0; i < workers; i++ {
		go s.execWorker()
	}
	return s, nil
}

// Routing returns the flattened routing table (function -> primary node),
// fixed at placement for the system's lifetime.
func (s *System) Routing() cluster.RoutingTable {
	rt := make(cluster.RoutingTable, len(s.fnList))
	for _, st := range s.fnList {
		rt[st.name] = st.primary().Name
	}
	return rt
}

// Register installs the handler for a function. Every workflow function
// must be registered before Invoke. Handlers may be re-registered (tests
// wrap them); running instances keep the handler they loaded at start.
func (s *System) Register(fn string, h Handler) error {
	st, ok := s.fns[fn]
	if !ok {
		return fmt.Errorf("core: unknown function %q", fn)
	}
	s.regMu.Lock()
	st.handler.Store(&h)
	ready := true
	for _, f := range s.fnList {
		if f.handlerFn() == nil {
			ready = false
			break
		}
	}
	if ready {
		s.handlersReady.Store(true)
	}
	s.regMu.Unlock()
	return nil
}

// routePin records one request's replica decision for a function: every
// item of the request addressed to fn lands on (and every instance of fn
// runs on) this node, so data-availability triggering stays node-local.
type routePin struct {
	fn      string
	node    *cluster.Node
	ordinal int // replica ordinal at pin time: the function's container pool there
}

// selectReplica picks fn's replica for a new pin: cluster.SelectReplica by
// in-flight instance count (nodeLoad), backfilling from every node. Under
// fault tolerance only Up nodes are pinnable.
func (s *System) selectReplica(st *fnState, prefer *cluster.Node) (n *cluster.Node, ordinal int, ok bool) {
	routable := func(*cluster.Node) bool { return true }
	if s.ft {
		routable = (*cluster.Node).Routable
	}
	load := func(n *cluster.Node) int64 { return s.nodeLoad[n].Load() }
	return cluster.SelectReplica(st.replicas, s.allNodes, prefer, routable, load)
}

// routeFor resolves the node serving fn for this request and its replica
// ordinal, pinning the replica on first use (the static path returns the
// primary). Caller must not hold r.mu.
func (s *System) routeFor(r *request, st *fnState, prefer *cluster.Node) (*cluster.Node, int) {
	if s.static {
		return st.primary(), 0
	}
	r.mu.Lock()
	if p := r.pin(st.name); p != nil {
		if s.ft && p.node.Health() == cluster.Down {
			// The pin died: repair the request's dead pins (in place, so p
			// still holds) and replay what their sinks lost.
			s.repairLocked(r)
		}
		n, o := p.node, p.ordinal
		r.mu.Unlock()
		return n, o
	}
	n, o, _ := s.selectReplica(st, prefer)
	r.route = append(r.route, routePin{fn: st.name, node: n, ordinal: o})
	r.mu.Unlock()
	return n, o
}

// now returns time since system epoch (trace/sink timestamps).
func (s *System) now() time.Duration { return s.clk.Now() - s.epoch }

// PendingInvocations returns the number of requests still tracked by the
// system (in flight, or failed before their teardown ran). The counter's
// lanes are read one at a time, so the result is exact only once the system
// is quiescent.
func (s *System) PendingInvocations() int {
	return int(s.pendingInvs.Load())
}

// SinkStats merges the Wait-Match Memory counters of every cluster node.
// Only remote sinks count anything: in process a datum lives in its request's
// tracker and never enters the node's sink. Unreachable remote sinks
// contribute nothing.
func (s *System) SinkStats() wmm.Stats {
	var out wmm.Stats
	for _, name := range s.cfg.Cluster.Nodes() {
		if n, ok := s.cfg.Cluster.Node(name); ok {
			if st, err := n.SinkStats(); err == nil {
				out.Merge(st)
			}
		}
	}
	return out
}

// Invoke starts one workflow request. input maps "function.input" to the
// payload for every user entry input.
//
// Invoke does not wait for the request, with one bounded exception: a lone
// entry instance of a brief function (fnState.brief: under 50 µs of wall time
// per run on average) runs on the calling goroutine, and so does each
// consumer an inline ship parks there while it is brief too — a warm
// a → b → $USER chain is done when Invoke returns. Invoke never runs what may
// sit out an Eq. 1 block, a limiter park, a wire or a cold start.
func (s *System) Invoke(input map[string][]byte) (*Invocation, error) {
	// The slow path names the first unregistered function.
	if !s.handlersReady.Load() {
		for _, st := range s.fnList {
			if st.handlerFn() == nil {
				return nil, fmt.Errorf("core: function %q has no handler", st.name)
			}
		}
	}
	start := s.clk.Now()
	// Take the next request number from a pooled idBlock: the shared
	// sequence is touched once per idBlockSize requests, and the block's
	// stripe tag routes all of this request's counter updates to one lane.
	blk, _ := s.idPool.Get().(*idBlock)
	if blk == nil {
		blk = &idBlock{stripe: s.stripeSeq.Add(1) & (obs.NumStripes - 1)}
	}
	stripe := blk.stripe
	// The gate count spans registration and the first spawns, so Shutdown
	// drains a whole request or refuses it; a caller-run chain keeps it.
	if !s.gate.enter(stripe) {
		s.idPool.Put(blk)
		obsRejShutdown.Inc(stripe)
		return nil, errShutdown
	}
	if blk.next == blk.end {
		end := s.reqSeq.Add(idBlockSize)
		blk.next, blk.end = end-idBlockSize+1, end+1
	}
	reqNum := blk.next
	blk.next++
	s.idPool.Put(blk)
	// The handle is the request's one allocation: its engine state comes off
	// the stripe's free-list, and the id is formatted only if asked for.
	inv := &Invocation{id: reqNum}
	inv.wg.Add(1)
	r := s.newRequest(inv, stripe, start)
	var entryBuf [4]dataflow.Ready
	obsRequests.Inc(stripe)
	if s.sampleEvery > 0 && reqNum%s.sampleEvery == 0 {
		r.span = s.ring.Start(s.ring.NewTraceID(), inv.ReqID())
	}
	s.pendingInvs.Add(stripe, 1)

	s.event(r, obs.ReqArrived, "", 0)
	// No lock: r came off the free-list under its mutex, and no other
	// goroutine can reach it until its first job is admitted below.
	newly, err := r.tracker.StartBytesInto(entryBuf[:0], input)
	if err != nil {
		// The normal teardown uncounts the rejected request, releases waiters.
		s.gate.exit(stripe)
		obsRejInvalid.Inc(0)
		r.fail(err)
		r.release()
		return nil, err
	}
	if len(newly) == 1 {
		// The caller finishes a brief entry instance before a worker would
		// wake for it, under the gate count it entered with, and Invoke's
		// reference becomes the job's. Nothing since the reading of start can
		// have slept, so it starts the instance.
		s.runChain(s.admitInstance(r, newly[0]), true, start)
		return inv, nil
	}
	s.scheduleReady(r, newly, nil)
	r.release()
	s.gate.exit(stripe)
	return inv, nil
}

// errShutdown refuses an Invoke after Shutdown.
var errShutdown = errors.New("core: system is shut down")

// admitInstance records one triggered instance and makes its job. The caller
// hands the job a reference to the request, held until it has run, and sees
// to it that a gate count covers it: its own, or the chain's it is parked in.
func (s *System) admitInstance(r *request, rd dataflow.Ready) instanceJob {
	s.event(r, obs.InstanceTriggered, rd.Key.Fn, rd.Key.Idx)
	return instanceJob{req: r, gen: r.gen.Load(), key: rd.Key, st: s.fnList[rd.Fn]}
}

// scheduleReady triggers newly ready instances; the tracker hands each key out
// once. flu is non-nil when the producer itself is shipping (Context.put): if
// it passed the continuation gate, the first instance is parked in it, to run
// next under its chain's gate count with its producer job's reference, and
// only the rest (a fan-out) take a count and a reference of their own and wake
// through the executor pool.
func (s *System) scheduleReady(r *request, ready []dataflow.Ready, flu *Context) {
	for _, rd := range ready {
		job := s.admitInstance(r, rd)
		if flu != nil && flu.cont && flu.next.req == nil {
			flu.next = job
			continue
		}
		r.refs.Add(1)
		s.gate.add(r.stripe)
		s.submitInstance(job)
	}
}

// instanceJob is one instance execution handed to the executor pool, or
// parked in its producer's Context (req nil = none). It holds a reference to
// req, made under generation gen: its own, or, parked, its producer's.
type instanceJob struct {
	req *request
	gen uint32
	key dataflow.InstanceKey
	st  *fnState // key.Fn's record
}

// submitInstance dispatches one admitted instance, and the gate count held
// for it, onto an idle executor worker when one is guaranteed to pull it, else
// onto a fresh goroutine. The pool recycles warm stacks, but an instance never
// waits behind another: instances block on each other's data.
func (s *System) submitInstance(job instanceJob) {
	for {
		n := s.execIdle.Load()
		if n <= 0 {
			go s.runChain(job, false, clock.NoReading)
			return
		}
		if s.execIdle.CompareAndSwap(n, n-1) {
			s.execJobs <- job // a reserved worker pulls it: the send cannot block
			return
		}
	}
}

// execWorker is one executor-pool goroutine: it runs queued instances
// serially, re-announcing itself idle after each. Workers exit when
// Shutdown closes the queue (after the gate drained: no submitter remains).
func (s *System) execWorker() {
	for j := range s.execJobs {
		s.runChain(j, false, clock.NoReading)
		s.execIdle.Add(1)
	}
}

// runChain runs one instance and then, run to completion, every consumer its
// ships parked for this goroutine — a → b → $USER on one worker — under the
// gate count the chain started with, exited on the stripe it entered. An
// Invoke caller runs only what is brief and has a warm container: its chain
// ends at the first instance that is not, which goes to the executor pool
// with the count. A job that ran hands its request reference to the
// continuation it parked, or drops it. at is a reading this goroutine took
// with nothing that can sleep since (clock.NoReading: none), where the first
// instance starts; each continuation starts at its producer's end. Every
// instance of the chain runs on one pooled Context.
func (s *System) runChain(j instanceJob, caller bool, at time.Duration) {
	stripe := j.req.stripe
	ctx := ctxPool.Get().(*Context)
	defer releaseCtx(ctx)
	for cont := false; j.req != nil; cont = true {
		next, end, ran := s.runInstance(ctx, j, caller, cont, at)
		if !ran {
			s.submitInstance(j)
			return
		}
		if next.req == nil {
			j.req.release()
		}
		j, at = next, end
	}
	s.gate.exit(stripe)
}

// runInstance executes one function instance: acquire a container, fetch
// inputs from the request's tracker, run the handler (ReDo on failure), release
// the container. It returns the consumer an inline ship of the handler
// parked for this goroutine, if any. ran is false when an Invoke caller may
// not run it (not brief, or its container needs a cold start). cont marks a
// consumer its producer parked: one that runs is a continuation.
//
// One clock reading serves two neighbours: the handler starts at at when the
// caller carried one in, and end, which closed its last run, is the next
// instance's at. A parked instance cap and a cold start each drop the
// carried reading, so T_FLU never contains a wait. Three returns keep every
// defer open-coded. ctx is the chain's Context; this run overwrites its
// per-run fields and inputs.
func (s *System) runInstance(ctx *Context, j instanceJob, caller, cont bool, at time.Duration) (next instanceJob, end time.Duration, ran bool) {
	r, key, st := j.req, j.key, j.st
	r.live(j.gen)
	fn := key.Fn
	if caller && !st.brief() {
		return instanceJob{}, clock.NoReading, false
	}
	// The node the request's data for fn was routed to (pinned at the first
	// ship), or for an entry function the least-loaded replica.
	node, ordinal := s.routeFor(r, st, nil)
	if !s.static {
		ld := s.nodeLoad[node]
		ld.Add(r.stripe, 1)
		defer ld.Add(r.stripe, -1)
	}
	if st.cap.acquire(r.stripe) {
		at = clock.NoReading
	}
	defer func() {
		if st.cap.release(r.stripe) {
			end = clock.NoReading
		}
	}()

	pool := st.pools[ordinal]
	ctr, warm := pool.Acquire(r.stripe)
	if !warm {
		if caller && node.ColdStart() > 0 {
			return instanceJob{}, clock.NoReading, false
		}
		ctr = node.StartContainer(fn, st.spec)
		s.event(r, obs.ContainerCold, fn, key.Idx)
		at = clock.NoReading
	}
	defer pool.Release(ctr, r.stripe)
	if caller {
		obsCallerRuns.Inc(r.stripe)
	}
	if cont {
		obsContinuations.Inc(r.stripe)
	}

	// Consume the instance's data from the remote sinks it landed in, so
	// proactive release reclaims it at fetch (a fanned function's shared
	// inputs are teardown's), and its node's death needs no replay; an
	// in-process land recorded no arrival. The sink calls nest under r.mu —
	// shard mutexes are leaf locks, as in teardown.
	r.mu.Lock()
	inputs, valBuf := r.tracker.InputsAppendBacking(ctx.inputs[:0], ctx.valBuf[:0], st.idx, key)
	if r.arrivals.Len() > 0 {
		for i := r.arrivals.Fetch(r.tracker.Fetcher(st.idx, key.Idx)); i >= 0; i = r.arrivals.Next(i) {
			// Accounting only: the values come from the tracker, so an
			// unreachable remote sink costs residue, not correctness.
			a := r.arrivals.At(i)
			if _, ok, err := a.Node.SinkGet(a.Key); err == nil && ok {
				r.sinkResidue.Add(-1)
			}
		}
	}
	r.mu.Unlock()

	h := st.handlerFn()
	ctx.Instance, ctx.next = key, instanceJob{}
	ctx.inputs, ctx.valBuf = inputs, valBuf
	ctx.sys, ctx.req, ctx.gen, ctx.ctr, ctx.fst = s, r, j.gen, ctr, st
	for {
		s.event(r, obs.InstanceStarted, fn, key.Idx)
		if at < 0 {
			at = s.clk.Now()
		}
		ctx.at, ctx.blocked = at, 0
		err := h(ctx)
		end = s.clk.Now()
		d := end - at
		st.observe(r.stripe, d, ctx.blocked)
		obsExecLat.Observe(r.stripe, int64(d))
		if err == nil {
			s.event(r, obs.InstanceFinished, fn, key.Idx)
			break
		}
		at = end // the ReDo starts where this run ended
		r.mu.Lock()
		if r.attempts == nil {
			r.attempts = make(map[dataflow.InstanceKey]int)
		}
		r.attempts[key]++
		attempts := r.attempts[key]
		r.mu.Unlock()
		if attempts > retryLimit {
			r.fail(fmt.Errorf("core: %s failed after %d attempts: %w", key, attempts, err))
			break
		}
	}
	return ctx.next, end, true
}
