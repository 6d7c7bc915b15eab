// Package simcluster is the simulation plane: the paper's 5-node testbed
// (load generator, backend storage node, three workers) modelled on the
// discrete-event kernel, with full implementations of
//
//   - DataFlower (data-flow triggering, FLU/DLU overlap, pressure-aware
//     scaling, host-container collaborative communication),
//   - DataFlower-Non-aware (the §9.3 ablation: pressure scaling off),
//   - FaaSFlow (decentralized control-flow, backend storage persistence,
//     local-memory cache for co-located functions),
//   - SONIC (control-flow with host-local storage and p2p fetches), and
//   - StateMachine (a production-style centralized orchestrator, used for
//     the §3 investigation and the §9.9 stateful experiment).
//
// Every experiment cmd/benchrunner runs drives this package; absolute numbers
// depend on the calibrated workload profiles, but the comparisons (who
// wins, by how much, where crossovers sit) reproduce the paper's findings.
package simcluster

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wmm"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// Kind selects the system under test.
type Kind int

// Systems.
const (
	DataFlower Kind = iota
	DataFlowerNonAware
	FaaSFlow
	SONIC
	StateMachine
)

// String names the system.
func (k Kind) String() string {
	switch k {
	case DataFlower:
		return "DataFlower"
	case DataFlowerNonAware:
		return "DataFlower-Non-aware"
	case FaaSFlow:
		return "FaaSFlow"
	case SONIC:
		return "SONIC"
	case StateMachine:
		return "StateMachine"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config parameterizes one simulation run.
type Config struct {
	Kind    Kind
	Profile *workloads.Profile
	// Colocated lists additional workflows deployed on the same cluster
	// (§9.8). Function names must be globally unique.
	Colocated []*workloads.Profile

	// Workers is the number of worker nodes (default 3, as §9.1).
	Workers int
	// Fleet optionally gives every worker its own hardware shape: when
	// non-empty it overrides Workers (one worker per entry, in order) and
	// each node's NIC/disk bandwidth; zero fields fall back to
	// NodeNICBps/DiskBps. The scenario harness generates large fleets from
	// weighted templates onto this surface.
	Fleet []NodeSpec
	// SingleNode forces all functions onto one worker (§9.4 setup).
	SingleNode bool
	// Placement overrides the placement policy: the same snapshot/policy
	// types the runtime plane's cluster uses (nil defaults to
	// cluster.RoundRobin{} — or cluster.SingleNode{} when SingleNode is
	// set — which reproduces the classic one-node-per-function placement
	// exactly). Replica sets beyond the primary are honoured by the
	// DataFlower kinds only; control-flow baselines route to primaries.
	Placement cluster.PlacementPolicy
	// MemMB is the container memory spec (default 128; §9.7 scales it).
	MemMB int
	// MaxContainersPerFn bounds scale-out per function (default 40).
	MaxContainersPerFn int

	// NodeNICBps is each worker's NIC bandwidth (default 1 Gbit/s).
	NodeNICBps float64
	// DiskBps is host-local SSD bandwidth (SONIC's data path).
	DiskBps float64

	// RequestTimeout marks a request failed if exceeded (missing points in
	// the paper's figures; default 120 s).
	RequestTimeout time.Duration //repolint:testseam the timeout tests need a timeout short enough to reach

	// Faults schedules node kill/recover/drain events at virtual times
	// (faults.go). Supported for the DataFlower kinds (the control-flow
	// baselines have no failover story to model). An empty schedule leaves
	// every code path — and therefore every experiment's output —
	// bit-for-bit identical to the fault-free engine.
	Faults []FaultEvent

	// Seed drives arrivals and any tie-breaking randomness.
	Seed int64
}

// The simulated platform's fixed parameters.
const (
	// storageBps is the backend storage node's aggregate bandwidth (1
	// Gbit/s shared by all clients — the control-flow choke point).
	storageBps = 125e6
	// storageLatency is the per-operation storage access latency.
	storageLatency = 3 * time.Millisecond
	// coldStart is the container cold-start delay.
	coldStart = 400 * time.Millisecond
	// sinkTTL is the Wait-Match Memory passive-expire TTL.
	sinkTTL = 60 * time.Second
	// sinkShards is the sink's lock-stripe count: the simulation's event
	// loop is single-threaded, so one stripe (no striping overhead).
	sinkShards = 1
)

// NodeSpec is one worker's hardware shape in Config.Fleet. Zero fields fall
// back to the cluster-wide Config.NodeNICBps/DiskBps defaults.
type NodeSpec struct {
	// NICBps is the node's NIC bandwidth in bytes/second.
	NICBps float64
	// DiskBps is the node's host-local SSD bandwidth in bytes/second.
	DiskBps float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if len(c.Fleet) > 0 {
		c.Workers = len(c.Fleet)
	}
	if c.Workers == 0 {
		c.Workers = 3
	}
	if c.MemMB == 0 {
		c.MemMB = 128
	}
	if c.MaxContainersPerFn == 0 {
		c.MaxContainersPerFn = 40
	}
	if c.NodeNICBps == 0 {
		c.NodeNICBps = 125e6 // 1 Gbit/s
	}
	if c.DiskBps == 0 {
		c.DiskBps = 500e6
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// containerBps returns the per-container bandwidth for the spec (40 Mbit/s
// per 128 MB).
func (c Config) containerBps() float64 {
	return float64(c.MemMB) / 128 * 5e6
}

// Per-system control-plane triggering overheads, calibrated to Fig. 2(c)
// and Fig. 13.
const (
	dfTriggerDelay    = 1500 * time.Microsecond
	ffTriggerDelay    = 14 * time.Millisecond
	sonicTriggerDelay = 19 * time.Millisecond
	smTriggerDelay    = 63 * time.Millisecond
	localPipeDelay    = 300 * time.Microsecond
	remotePipeDelay   = 1200 * time.Microsecond
	socketDelay       = 400 * time.Microsecond
	diskOpDelay       = 1 * time.Millisecond
	cacheReadDelay    = 500 * time.Microsecond
)

// smallData is the socket fast-path threshold (§7).
const smallData = 16 << 10

// FnStat aggregates per-function computation and communication time.
type FnStat struct {
	CompSec float64
	CommSec float64
	Count   int64
}

// Result carries everything the experiments read out of a run.
type Result struct {
	System    string
	Benchmark string

	Latencies *Sample
	Completed int64
	Failed    int64
	// SimDuration is the virtual time at which the run ended.
	SimDuration time.Duration
	// ThroughputRPM is completed requests per simulated minute over the
	// measurement window.
	ThroughputRPM float64
	// MemGBs is the container-memory integral over the run.
	MemGBs float64
	// MemGBsPerReq normalizes MemGBs by completed requests.
	MemGBsPerReq float64
	// CacheMBsPerReq is the host-side intermediate-data cache integral per
	// request (Fig. 14).
	CacheMBsPerReq float64
	// SinkStats merges the Wait-Match Memory counters of every node (hit
	// tiers, proactive releases, TTL spills).
	SinkStats wmm.Stats
	// CommByFn/CompByFn break the per-function time down (Fig. 2(a)).
	FnStats map[string]*FnStat
	// CPUBusy and NetBusy are resource usage timelines (Fig. 2(b)): the
	// number of containers computing / flows in flight over time.
	CPUBusy *Timeline
	NetBusy *Timeline
	// Trace is the request's stages, in time order, after RunOne (the
	// Fig. 2(c) and Fig. 13 timelines); load runs record none.
	Trace []obs.Stage
	// Containers is the total number of containers started.
	Containers int64
	// Recovered counts requests that were in flight across a node kill and
	// still completed; RecoveryLat samples their kill-to-completion
	// latency; Replays counts the items a kill made land again on a
	// repaired pin — re-shipped from the coordinator's log, or an in-flight
	// ship re-landed when its destination died under it. No function runs
	// again. All zero when Config.Faults is empty.
	Recovered   int64
	RecoveryLat *Sample
	Replays     int64
	// OverlapSec is the total per-container time during which a container's
	// FLU was computing while its own network transfers were in flight —
	// the computation/communication overlap of §3.2.2 (zero by construction
	// for control-flow systems).
	OverlapSec float64
	// CPUBusySec is the total per-container compute time (normalizer for
	// OverlapSec).
	CPUBusySec float64
}

// node is one simulated worker.
type node struct {
	idx  int
	name string
	nic  *simnet.Endpoint
	disk *simnet.Endpoint
	sink *wmm.Sink // DataFlower Wait-Match Memory / FaaSFlow local cache
	fns  map[string]*fnState

	// Health (faults.go): down nodes lost their sink contents and take no
	// pins; draining nodes take no new request pins.
	down     bool
	draining bool
}

// routable reports whether new request pins may select the node.
func (n *node) routable() bool { return !n.down && !n.draining }

// fnState is the per-function scheduling state on one node that serves the
// function: a replica, or a node a pin was backfilled onto (pickNode).
type fnState struct {
	fn      string
	node    *node
	workQ   *sim.Queue // *work items
	idleQ   *sim.Queue // *container
	started int        // containers created on this replica
	// fnStarted counts containers across all replicas of the function —
	// shared by its fnStates so Config.MaxContainersPerFn stays a
	// per-function bound (as documented, and as the runtime plane's shared
	// per-function semaphore enforces) rather than silently multiplying
	// by the replica count.
	fnStarted *int
}

// atFnCap reports whether the function (across all replicas) has reached
// the per-function container bound.
func (fs *fnState) atFnCap(max int) bool { return *fs.fnStarted >= max }

// container is one simulated function container.
type container struct {
	id      string
	fn      string
	node    *node
	ep      *simnet.Endpoint
	dluQ    *sim.Queue // DataFlower: queued DLU shipments
	dluBusy bool       // DLU daemon is mid-transfer
	born    time.Duration
	// cpuT and netT are this container's own busy timelines; their overlap
	// is the §3.2.2/Fig. 2(b) metric (sequential vs overlapped phases).
	cpuT, netT Timeline
}

// work is one function-instance execution.
type work struct {
	req *request
	key dataflow.InstanceKey
}

// request is one workflow invocation in flight.
type request struct {
	id      string
	seq     int64
	prof    *workloads.Profile
	tracker *dataflow.Tracker
	arrived time.Duration
	done    *sim.Event // triggered with latency (time.Duration) or error
	// pin records the replica chosen per function for this request
	// (allocated lazily; single-replica functions never touch it).
	pin map[string]*node
	// arrivals logs every item cached in a node's sink under its key: what
	// each instance fetches (consumeSinkInputs) and the coordinator's log a
	// node kill replays from (faults.go).
	arrivals cluster.ArrivalLog[*node]
	// recovering marks the request as touched by a node kill;
	// recoverStart is the (first) kill's virtual time.
	recovering   bool
	recoverStart time.Duration
	// control-flow bookkeeping: remaining instances per function.
	remaining   map[string]int
	finished    map[string]bool
	cfTriggered map[string]bool
	failed      bool
}

// Sim is one configured simulation.
type Sim struct {
	cfg     Config
	env     *sim.Env
	fabric  *simnet.Fabric
	nodes   []*node
	storage *simnet.Endpoint
	user    *simnet.Endpoint
	// routing maps each function to its primary replica (the control-flow
	// baselines' only route); replicas holds the full ordered replica set
	// the DataFlower kinds select from.
	routing  map[string]*node
	replicas map[string][]*node
	profOf   map[string]*workloads.Profile
	profs    []*workloads.Profile

	fluAvg map[string]*avgTracker

	// recording is set by RunOne: its one request records its stages.
	recording   bool
	stages      []obs.Stage
	memInt      obs.Integral
	cpuBusy     Timeline
	netBusy     Timeline
	fnStats     map[string]*FnStat
	prewarms    int64
	ctrs        []*container
	warmupSeq   int64
	latByWf     map[string]*Sample
	completed   int64
	failed      int64
	latencies   Sample
	completions []time.Duration
	reqSeq      int64
	containers  int64

	// Fault plane (faults.go). faulty gates every fault-only code path so a
	// fault-free run is bit-for-bit the classic engine.
	faulty      bool
	inflight    map[*request]struct{}
	recoveries  int64
	replays     int64
	recoveryLat Sample
}

type avgTracker struct {
	total time.Duration
	n     int64
}

func (a *avgTracker) add(d time.Duration) { a.total += d; a.n++ }
func (a *avgTracker) avg() time.Duration {
	if a.n == 0 {
		return 0
	}
	return a.total / time.Duration(a.n)
}

// New builds a simulation for the config. Programmatic misuse panics with
// the Validate error; callers assembling configs from external input (the
// scenario harness) should call Validate first and surface the typed error.
func New(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.withDefaults()
	env := sim.NewEnv(cfg.Seed)
	fab := simnet.NewFabric(env)
	s := &Sim{
		cfg:      cfg,
		env:      env,
		fabric:   fab,
		storage:  fab.NewEndpoint(storageBps),
		user:     fab.NewEndpoint(0),
		routing:  make(map[string]*node),
		replicas: make(map[string][]*node),
		profOf:   make(map[string]*workloads.Profile),
		fluAvg:   make(map[string]*avgTracker),
		fnStats:  make(map[string]*FnStat),
		latByWf:  make(map[string]*Sample),
	}
	for i := 0; i < cfg.Workers; i++ {
		nicBps, diskBps := cfg.NodeNICBps, cfg.DiskBps
		if len(cfg.Fleet) > 0 {
			if sp := cfg.Fleet[i]; sp.NICBps > 0 {
				nicBps = sp.NICBps
			}
			if sp := cfg.Fleet[i]; sp.DiskBps > 0 {
				diskBps = sp.DiskBps
			}
		}
		n := &node{
			idx:  i,
			name: fmt.Sprintf("w%d", i+1),
			nic:  fab.NewEndpoint(nicBps),
			disk: fab.NewEndpoint(diskBps),
			sink: wmm.NewSink(wmm.Options{
				TTL:              sinkTTL,
				DisableProactive: cfg.Kind == FaaSFlow || cfg.Kind == SONIC || cfg.Kind == StateMachine,
				Shards:           sinkShards,
			}),
			fns: make(map[string]*fnState),
		}
		s.nodes = append(s.nodes, n)
	}
	// Placement: the same snapshot/policy types the runtime plane uses. The
	// defaults reproduce the classic placement exactly — round-robin in
	// declaration order, or everything on worker 0 under SingleNode.
	s.profs = append(s.profs, cfg.Profile)
	s.profs = append(s.profs, cfg.Colocated...)
	var fnNames []string
	for _, prof := range s.profs {
		// Validate already rejected duplicate function names across the
		// colocated workflows.
		for _, f := range prof.Workflow.Functions {
			s.profOf[f.Name] = prof
			fnNames = append(fnNames, f.Name)
		}
	}
	pol := cfg.Placement
	if pol == nil {
		if cfg.SingleNode {
			pol = cluster.SingleNode{}
		} else {
			pol = cluster.RoundRobin{}
		}
	}
	nodeNames := make([]string, len(s.nodes))
	nodeByName := make(map[string]*node, len(s.nodes))
	for i, n := range s.nodes {
		nodeNames[i] = n.name
		nodeByName[n.name] = n
	}
	snap := pol.Place(fnNames, nodeNames)
	for _, fn := range fnNames {
		reps := snap.Replicas(fn)
		if len(reps) == 0 {
			panic(fmt.Sprintf("simcluster: placement left %q unassigned", fn))
		}
		fnStarted := new(int)
		for _, r := range reps {
			n, ok := nodeByName[r.Node]
			if !ok {
				panic(fmt.Sprintf("simcluster: placement maps %q to unknown node %q", fn, r.Node))
			}
			s.replicas[fn] = append(s.replicas[fn], n)
			fs := &fnState{
				fn:        fn,
				node:      n,
				workQ:     sim.NewQueue(),
				idleQ:     sim.NewQueue(),
				fnStarted: fnStarted,
			}
			n.fns[fn] = fs
			env.Go(func(p *sim.Proc) { s.dispatcher(p, fs) })
		}
		s.routing[fn] = s.replicas[fn][0]
		s.fluAvg[fn] = &avgTracker{}
		s.fnStats[fn] = &FnStat{}
	}
	s.armFaults()
	return s
}

// replicaFor returns the node serving fn for this request under the
// DataFlower kinds, pinning the choice on first use so every item and
// instance of the function stays node-local. Without faults a
// single-replica function short-circuits with no per-request state,
// preserving the classic semantics bit-for-bit; under the fault plane
// every choice is pinned, because a kill repairs requests by deleting
// their pins to the dead node.
func (s *Sim) replicaFor(req *request, fn string, prefer *node) *node {
	if reps := s.replicas[fn]; !s.faulty && len(reps) == 1 {
		return reps[0]
	}
	if n, ok := req.pin[fn]; ok {
		return n
	}
	chosen := s.pickNode(fn, prefer)
	if req.pin == nil {
		req.pin = make(map[string]*node)
	}
	req.pin[fn] = chosen
	return chosen
}

// pickNode is cluster.SelectReplica over fn's replica set by each node's
// outstanding work for fn, backfilling from the whole cluster when no member
// is routable; with nothing routable at all the set's head limps along.
// Without faults every node is routable, so a member always answers. A
// backfilled node serves the pin without joining s.replicas[fn], as the
// runtime plane serves a backfill ordinal from that node's pool: its
// fnState is made on first use.
func (s *Sim) pickNode(fn string, prefer *node) *node {
	reps := s.replicas[fn]
	n, ordinal, _ := cluster.SelectReplica(reps, s.nodes, prefer, (*node).routable, func(n *node) int64 { return n.fns[fn].load() })
	if ordinal >= len(reps) && n.fns[fn] == nil {
		fs := &fnState{
			fn:        fn,
			node:      n,
			workQ:     sim.NewQueue(),
			idleQ:     sim.NewQueue(),
			fnStarted: reps[0].fns[fn].fnStarted,
		}
		n.fns[fn] = fs
		s.env.Go(func(p *sim.Proc) { s.dispatcher(p, fs) })
	}
	return n
}

// load estimates a replica's outstanding work: queued instances plus
// containers that are started and not idle (none on a node that does not
// host the function).
func (fs *fnState) load() int64 {
	if fs == nil {
		return 0
	}
	return int64(fs.workQ.Len() + fs.started - fs.idleQ.Len())
}

// execTime scales the function's reference execution time by container size.
func (s *Sim) execTime(fn string) time.Duration {
	ref := s.profOf[fn].ExecOf(fn)
	return time.Duration(float64(ref) * 128 / float64(s.cfg.MemMB))
}

// LatencyOf returns the latency sample of one co-located workflow by
// benchmark name (empty sample if it never completed a request).
func (s *Sim) LatencyOf(name string) *Sample {
	if l, ok := s.latByWf[name]; ok {
		return l
	}
	return new(Sample)
}

// scaleOutDelay is how long an invocation waits for a warm container before
// the platform cold-starts a new one. Warm reuse is always preferred: this
// is what makes DataFlower's Callstack blocking an effective scaling signal
// (a blocked FLU forces waits, waits force scale-out), while without it the
// platform sees idle FLUs and keeps funnelling work into backlogged DLUs.
const scaleOutDelay = 50 * time.Millisecond

// dispatcher matches work items with idle containers, scaling out up to the
// per-function cap after scaleOutDelay of waiting.
func (s *Sim) dispatcher(p *sim.Proc, fs *fnState) {
	for {
		w := p.Get(fs.workQ).(*work)
		c := s.acquire(p, fs)
		s.env.Go(func(ep *sim.Proc) {
			s.execute(ep, c, w)
			fs.idleQ.TryPut(c)
		})
	}
}

// acquire obtains a container on fs's replica: idle reuse first, then the
// scale-out policy (cold start when concurrency demands it, else wait
// scaleOutDelay for a warm one).
func (s *Sim) acquire(p *sim.Proc, fs *fnState) *container {
	if ci, ok := fs.idleQ.TryGet(); ok {
		return ci.(*container)
	}
	if fs.atFnCap(s.cfg.MaxContainersPerFn) {
		return p.Get(fs.idleQ).(*container)
	}
	if fs.workQ.Len()+1 > fs.started {
		// Concurrency-based scale-out: more invocations in flight than
		// containers. This is the standard serverless reaction to FLU
		// (compute) demand; DLU (transfer) demand is invisible to it.
		return s.coldStart(p, fs)
	}
	if ci, ok := p.GetTimeout(fs.idleQ, scaleOutDelay); ok {
		return ci.(*container)
	}
	return s.coldStart(p, fs)
}

// coldStart creates a container (charging the cold-start delay to the
// dispatcher, which stalls subsequent triggers of the same function — the
// serverless reality that makes prewarming valuable).
func (s *Sim) coldStart(p *sim.Proc, fs *fnState) *container {
	fs.started++
	*fs.fnStarted++
	s.containers++
	s.memInt.AddDelta(s.env.Now(), float64(s.cfg.MemMB)/1024)
	p.Sleep(coldStart)
	c := &container{
		id:   fmt.Sprintf("%s/%s-%d", fs.node.name, fs.fn, fs.started),
		fn:   fs.fn,
		node: fs.node,
		ep:   s.fabric.NewEndpoint(s.cfg.containerBps()),
		dluQ: sim.NewQueue(),
		born: s.env.Now(),
	}
	s.ctrs = append(s.ctrs, c)
	if s.kindIsDataflower() {
		s.env.Go(func(dp *sim.Proc) { s.dluDaemon(dp, c) })
	}
	return c
}

// prewarm starts an extra container in the background in response to a
// pressure notification from a DLU.
func (s *Sim) prewarm(fs *fnState) {
	if fs.atFnCap(s.cfg.MaxContainersPerFn) {
		return
	}
	s.prewarms++
	fs.started++
	*fs.fnStarted++
	s.containers++
	s.memInt.AddDelta(s.env.Now(), float64(s.cfg.MemMB)/1024)
	s.env.Go(func(p *sim.Proc) {
		p.Sleep(coldStart)
		c := &container{
			id:   fmt.Sprintf("%s/%s-pw%d", fs.node.name, fs.fn, fs.started),
			fn:   fs.fn,
			node: fs.node,
			ep:   s.fabric.NewEndpoint(s.cfg.containerBps()),
			dluQ: sim.NewQueue(),
			born: s.env.Now(),
		}
		s.ctrs = append(s.ctrs, c)
		if s.kindIsDataflower() {
			s.env.Go(func(dp *sim.Proc) { s.dluDaemon(dp, c) })
		}
		fs.idleQ.TryPut(c)
	})
}

func (s *Sim) kindIsDataflower() bool {
	return s.cfg.Kind == DataFlower || s.cfg.Kind == DataFlowerNonAware
}

// stage records one stage of RunOne's request.
func (s *Sim) stage(kind obs.StageKind, fn string, idx int) {
	if s.recording {
		s.stages = append(s.stages, obs.Stage{Kind: kind, At: s.env.Now(), Fn: fn, Idx: idx})
	}
}

// newRequest creates the bookkeeping for one invocation of prof.
func (s *Sim) newRequest(prof *workloads.Profile) *request {
	s.reqSeq++
	req := &request{
		id:        fmt.Sprintf("r%d", s.reqSeq),
		seq:       s.reqSeq,
		prof:      prof,
		tracker:   dataflow.NewTracker(prof.Workflow),
		arrived:   s.env.Now(),
		done:      sim.NewEvent(s.env),
		remaining: make(map[string]int),
		finished:  make(map[string]bool),
	}
	for _, f := range prof.Workflow.Functions {
		req.remaining[f.Name] = s.instancesOf(f.Name)
	}
	return req
}

// instancesOf returns the instance count of fn under the static profile
// (control-flow systems know the FOREACH degree from the definition).
func (s *Sim) instancesOf(fn string) int {
	prof := s.profOf[fn]
	for _, e := range prof.Workflow.Edges() {
		if e.To == fn && e.Kind == workflow.Foreach {
			return prof.Fanout
		}
	}
	return 1
}

// complete finalizes a request.
func (s *Sim) complete(req *request) {
	if req.done.Triggered() {
		return
	}
	lat := s.env.Now() - req.arrived
	s.completed++
	if req.seq > s.warmupSeq {
		s.latencies.AddDuration(lat)
	}
	wfLat := s.latByWf[req.prof.Name]
	if wfLat == nil {
		wfLat = new(Sample)
		s.latByWf[req.prof.Name] = wfLat
	}
	wfLat.AddDuration(lat)
	s.recordCompletion(s.env.Now())
	s.stage(obs.ReqCompleted, "", 0)
	req.done.Trigger(lat)
	for _, n := range s.nodes {
		n.sink.ReleaseRequest(s.env.Now(), req.id)
	}
	if s.faulty {
		delete(s.inflight, req)
		if req.recovering {
			s.recoveries++
			s.recoveryLat.AddDuration(s.env.Now() - req.recoverStart)
		}
	}
}

// fail finalizes a request as failed (timeout).
func (s *Sim) fail(req *request) {
	if req.done.Triggered() {
		return
	}
	req.failed = true
	s.failed++
	req.done.Trigger(fmt.Errorf("request %s timed out", req.id))
	for _, n := range s.nodes {
		n.sink.ReleaseRequest(s.env.Now(), req.id)
	}
	if s.faulty {
		delete(s.inflight, req)
	}
}

// noteComp charges compute seconds to fn and the CPU timeline.
func (s *Sim) noteComp(fn string, d time.Duration) {
	st := s.fnStats[fn]
	st.CompSec += d.Seconds()
	st.Count++
}

// noteComm charges communication seconds to fn.
func (s *Sim) noteComm(fn string, d time.Duration) {
	s.fnStats[fn].CommSec += d.Seconds()
}

// cpuDelta adjusts the busy-CPU timeline.
func (s *Sim) cpuDelta(d float64) { s.cpuBusy.AddDelta(s.env.Now(), d) }

// netDelta adjusts the busy-network timeline.
func (s *Sim) netDelta(d float64) { s.netBusy.AddDelta(s.env.Now(), d) }

// compute charges an instance's execution time against the container.
func (s *Sim) compute(p *sim.Proc, c *container, fn string) time.Duration {
	d := s.execTime(fn)
	s.cpuDelta(1)
	if c != nil {
		c.cpuT.AddDelta(s.env.Now(), 1)
	}
	p.Sleep(d)
	s.cpuDelta(-1)
	if c != nil {
		c.cpuT.AddDelta(s.env.Now(), -1)
	}
	s.noteComp(fn, d)
	return d
}

// transfer moves size bytes across endpoints, charging the network
// timeline (and the owning container's, when given) and returning the
// elapsed transfer time.
func (s *Sim) transfer(p *sim.Proc, c *container, size int64, eps ...*simnet.Endpoint) time.Duration {
	start := s.env.Now()
	s.netDelta(1)
	if c != nil {
		c.netT.AddDelta(s.env.Now(), 1)
	}
	s.fabric.Transfer(p, size, eps...)
	s.netDelta(-1)
	if c != nil {
		c.netT.AddDelta(s.env.Now(), -1)
	}
	return s.env.Now() - start
}

// outputValues builds the emitted values of one output per the profile.
func (s *Sim) outputValues(fn, output string, kind workflow.EdgeKind) []dataflow.Value {
	prof := s.profOf[fn]
	size := prof.SizeOf(fn, output)
	if kind == workflow.Foreach {
		vals := make([]dataflow.Value, prof.Fanout)
		for i := range vals {
			vals[i] = dataflow.Value{Size: size}
		}
		return vals
	}
	return []dataflow.Value{{Size: size}}
}
