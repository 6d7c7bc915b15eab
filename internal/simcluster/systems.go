package simcluster

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/sim"
	"repro/internal/wmm"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// invoke starts one request: the user input is shipped to each entry
// function's node and the entry instances are triggered.
func (s *Sim) invoke(p *sim.Proc, prof *workloads.Profile) *request {
	req := s.newRequest(prof)
	s.stage(obs.ReqArrived, "", 0)
	// Watchdog.
	timeoutReq := req
	s.env.ScheduleAt(s.env.Now()+s.cfg.RequestTimeout, func() { s.fail(timeoutReq) })
	if s.faulty {
		s.inflight[req] = struct{}{}
	}

	entries := prof.Workflow.Entries()
	for _, f := range entries {
		// The load generator ships the input to the entry node. DataFlower
		// pins the entry replica here, so the bytes are charged to the NIC
		// of the node the entry instance will actually run on; control-flow
		// kinds always route to the primary.
		n := s.routing[f.Name]
		if s.kindIsDataflower() {
			n = s.replicaFor(req, f.Name, nil)
		}
		s.transfer(p, nil, prof.InputSize, s.user, n.nic)
	}
	userInput := map[string]dataflow.Value{}
	for _, f := range entries {
		for _, in := range f.Inputs {
			if in.FromUser {
				userInput[f.Name+"."+in.Name] = dataflow.Value{Size: prof.InputSize}
			}
		}
	}
	newly, err := req.tracker.Start(userInput)
	if err != nil {
		panic(fmt.Sprintf("simcluster: %v", err))
	}

	switch s.cfg.Kind {
	case DataFlower, DataFlowerNonAware:
		s.dfTrigger(req, newly)
	default:
		// Control flow: the orchestrator triggers entry functions directly.
		for _, f := range entries {
			s.cfTriggerFn(req, f.Name)
		}
	}
	return req
}

// ---------------------------------------------------------------------------
// DataFlower execution semantics
// ---------------------------------------------------------------------------

// dfTrigger schedules newly ready instances after the engine's (small)
// data-availability trigger delay.
func (s *Sim) dfTrigger(req *request, keys []dataflow.InstanceKey) {
	for _, key := range keys {
		key := key
		s.stage(obs.InstanceReady, key.Fn, key.Idx)
		s.env.ScheduleAt(s.env.Now()+dfTriggerDelay, func() {
			s.stage(obs.InstanceTriggered, key.Fn, key.Idx)
			// The request's pinned replica (set when its data landed), or —
			// for entry functions — the least-loaded replica.
			fs := s.replicaFor(req, key.Fn, nil).fns[key.Fn]
			fs.workQ.TryPut(&work{req: req, key: key})
		})
	}
}

// execute dispatches to the system-specific instance execution.
func (s *Sim) execute(p *sim.Proc, c *container, w *work) {
	if w.req.failed {
		return
	}
	switch s.cfg.Kind {
	case DataFlower, DataFlowerNonAware:
		s.dfExecute(p, c, w)
	case FaaSFlow:
		s.ffExecute(p, c, w)
	case SONIC:
		s.sonicExecute(p, c, w)
	case StateMachine:
		s.smExecute(p, c, w)
	}
}

// dfExecute runs one instance under DataFlower: inputs are already in the
// local Wait-Match Memory; outputs are handed to the DLU, with the
// pressure check (Eq. 1) potentially callstack-blocking the FLU.
func (s *Sim) dfExecute(p *sim.Proc, c *container, w *work) {
	req, key := w.req, w.key
	s.stage(obs.InstanceStarted, key.Fn, key.Idx)
	f, _ := req.prof.Workflow.Function(key.Fn)
	s.consumeSinkInputs(p, req, f.Index(), key.Idx)

	start := s.env.Now()
	s.compute(p, c, key.Fn)
	s.fluAvg[key.Fn].add(s.env.Now() - start)

	for _, o := range f.Outputs {
		values := s.outputValues(key.Fn, o.Name, o.Kind)
		switchCase := 0
		if o.Kind == workflow.Switch {
			switchCase = s.env.Rand().Intn(len(o.Dests))
		}
		items, err := req.tracker.RouteAppend(nil, key, o.Name, values, switchCase)
		if err != nil {
			// A concurrent FOREACH conflict cannot happen in the profiles;
			// treat as fatal configuration error.
			panic(fmt.Sprintf("simcluster: route: %v", err))
		}
		var total int64
		for _, it := range items {
			total += it.Value.Size
		}
		// Hand the shipment to the DLU daemon first: it pumps asynchronously
		// while the FLU is (possibly) callstack-blocked below.
		backlog := c.dluBusy || c.dluQ.Len() > 0
		c.dluQ.TryPut(&dluShipment{req: req, items: items})
		// Pressure-aware scaling (Eq. 1): when the DLU cannot keep up with
		// the FLU's producing rate, block this FLU for the pressure duration
		// (it cannot serve subsequent invocations, which throttles the
		// producing rate to the DLU's consuming rate), and when the DLU is
		// actually backlogged scale out — "even if the containers are
		// enough in terms of computation ability" (§9.3).
		if s.cfg.Kind == DataFlower && total > 0 {
			pressure := cluster.Pressure(cluster.DefaultAlpha, float64(total), s.cfg.containerBps(), s.fluAvg[key.Fn].avg())
			if pressure > 0 {
				if backlog {
					// Prewarm on the container's own node: the replica this
					// request (and its backlog) is pinned to.
					s.prewarm(c.node.fns[key.Fn])
				}
				p.Sleep(pressure) // Callstack blocking, overlapping the DLU pump
			}
		}
	}
	s.stage(obs.InstanceFinished, key.Fn, key.Idx)
}

// consumeSinkInputs performs the Wait-Match Memory reads for instance idx of
// function fn, as the engine's runInstance does: it fetches the instance's
// records from the arrival log and reads each from the node that holds it, so
// proactive release reclaims each at its read and a later kill of that node
// no longer needs it replayed. A fanned function's shared inputs are fetched
// by none of its instances: the request's release reclaims them. A disk hit
// charges the spill-read penalty.
func (s *Sim) consumeSinkInputs(p *sim.Proc, req *request, fn, idx int) {
	for i := req.arrivals.Fetch(req.tracker.Fetcher(fn, idx)); i >= 0; i = req.arrivals.Next(i) {
		a := req.arrivals.At(i)
		if _, tier, ok := a.Node.sink.Get(s.env.Now(), a.Key); ok && tier == wmm.Disk {
			p.Sleep(diskOpDelay) // spilled entry re-read from SSD
		}
	}
}

// dluShipment is one batch of routed items queued on a container's DLU.
type dluShipment struct {
	req   *request
	items []dataflow.Item
}

// dluDaemon pumps shipments through pipe connectors in FIFO order (§5.1).
func (s *Sim) dluDaemon(p *sim.Proc, c *container) {
	for {
		sh := p.Get(c.dluQ).(*dluShipment)
		c.dluBusy = true
		for _, it := range sh.items {
			s.dfShip(p, c, sh.req, it)
		}
		c.dluBusy = false
	}
}

// dfShip moves one item: local pipe, <16 KB socket, or streaming pipe.
func (s *Sim) dfShip(p *sim.Proc, c *container, req *request, it dataflow.Item) {
	if req.failed {
		return
	}
	start := s.env.Now()
	if it.To.Fn == workflow.UserSource {
		p.Sleep(remotePipeDelay)
		s.transfer(p, c, it.Value.Size, c.ep, s.user)
		s.noteComm(it.From.Fn, s.env.Now()-start)
		s.dfDeliver(req, it)
		return
	}
	// Replica selection, locality-first: a replica on the producer's node
	// turns the ship into a local pipe.
	dst := s.replicaFor(req, it.To.Fn, c.node)
	switch {
	case dst == c.node:
		// Local pipe connector: pump straight into the local sink.
		p.Sleep(localPipeDelay)
	case it.Value.Size <= pipe.SmallDataThreshold:
		// Direct socket path for small data.
		p.Sleep(socketDelay)
		s.transfer(p, c, it.Value.Size, c.ep, dst.nic)
	default:
		// Cross-node streaming pipe.
		p.Sleep(remotePipeDelay)
		s.transfer(p, c, it.Value.Size, c.ep, dst.nic)
	}
	s.noteComm(it.From.Fn, s.env.Now()-start)
	if s.faulty && dst.down {
		// The destination died while this shipment was in flight: repair
		// the pin and land on the survivor (the kill already cleared pins
		// to the dead node, so replicaFor re-selects among the living). A
		// re-land is no replay: as on the engine, replays count only items
		// re-shipped from the landed log (recoverRequest).
		delete(req.pin, it.To.Fn)
		dst = s.replicaFor(req, it.To.Fn, nil)
	}
	// Land in the destination Wait-Match Memory.
	key := cluster.SinkKey(req.id, it)
	dst.sink.Put(s.env.Now(), key, it.Value, 1)
	req.arrivals.Add(req.tracker.Fetcher(it.ToFn(), it.To.Idx), key, it.Value, dst)
	s.stage(obs.DataArrived, it.To.Fn, it.To.Idx)
	s.dfDeliver(req, it)
}

// dfDeliver advances the tracker and triggers newly ready instances.
func (s *Sim) dfDeliver(req *request, it dataflow.Item) {
	newly, err := req.tracker.DeliverInto(nil, it)
	if err != nil {
		panic(fmt.Sprintf("simcluster: deliver: %v", err))
	}
	s.dfTrigger(req, newly)
	if req.tracker.Complete() {
		s.complete(req)
	}
}

// ---------------------------------------------------------------------------
// Control-flow execution semantics (FaaSFlow, SONIC, StateMachine)
// ---------------------------------------------------------------------------

// cfTriggerFn enqueues all instances of fn after the system's control-plane
// triggering overhead. The state machine triggers branch instances
// sequentially (in-order), decentralized systems in one batch.
func (s *Sim) cfTriggerFn(req *request, fn string) {
	delay := ffTriggerDelay
	switch s.cfg.Kind {
	case SONIC:
		delay = sonicTriggerDelay
	case StateMachine:
		delay = smTriggerDelay
	}
	n := s.instancesOf(fn)
	for i := 0; i < n; i++ {
		i := i
		d := delay
		if s.cfg.Kind == StateMachine {
			// Sequential in-order triggering of parallel branches (§3.2.3).
			d = delay * time.Duration(i+1)
		}
		s.env.ScheduleAt(s.env.Now()+d, func() {
			if req.failed {
				return
			}
			s.stage(obs.InstanceTriggered, fn, i)
			fs := s.routing[fn].fns[fn]
			fs.workQ.TryPut(&work{req: req, key: dataflow.InstanceKey{Fn: fn, Idx: i}})
		})
	}
}

// cfComplete marks an instance finished; when the whole function is done it
// notifies successors whose predecessors have all completed.
func (s *Sim) cfComplete(req *request, key dataflow.InstanceKey) {
	req.remaining[key.Fn]--
	if req.remaining[key.Fn] > 0 {
		return
	}
	req.finished[key.Fn] = true
	wf := req.prof.Workflow
	for _, succ := range wf.Successors(key.Fn) {
		if req.finished[succ] {
			continue
		}
		ready := true
		for _, pre := range wf.Predecessors(succ) {
			if !req.finished[pre] {
				ready = false
				break
			}
		}
		if ready && !req.triggeredCF(succ) {
			s.cfTriggerFn(req, succ)
		}
	}
	// Terminal function done: the result has already been shipped to the
	// user inside the exec (the Put of the terminal output), so complete.
	if isTerminal(wf, key.Fn) && allTerminalsDone(wf, req) {
		s.complete(req)
	}
}

// triggeredCF marks/checks control-flow triggering (guards double fire when
// several predecessors finish simultaneously).
func (req *request) triggeredCF(fn string) bool {
	if req.cfTriggered == nil {
		req.cfTriggered = map[string]bool{}
	}
	if req.cfTriggered[fn] {
		return true
	}
	req.cfTriggered[fn] = true
	return false
}

func isTerminal(wf *workflow.Workflow, fn string) bool {
	for _, t := range wf.Terminals() {
		if t.Name == fn {
			return true
		}
	}
	return false
}

func allTerminalsDone(wf *workflow.Workflow, req *request) bool {
	for _, t := range wf.Terminals() {
		if !req.finished[t.Name] {
			return false
		}
	}
	return true
}

// inputEdges lists the data edges feeding fn with per-item sizes and source
// multiplicity.
func (s *Sim) inputEdges(fn string) []workflow.Edge {
	var out []workflow.Edge
	for _, e := range s.profOf[fn].Workflow.Edges() {
		if e.To == fn {
			out = append(out, e)
		}
	}
	return out
}

// ffExecute runs one instance under FaaSFlow: Get inputs (backend storage,
// or local memory when the producer is co-located), compute, Put outputs
// (storage or local memory). The container is busy for the whole sequence —
// the sequential resource usage of §3.2.2.
func (s *Sim) ffExecute(p *sim.Proc, c *container, w *work) {
	req, key := w.req, w.key
	s.stage(obs.InstanceStarted, key.Fn, key.Idx)

	// Get phase.
	for _, e := range s.inputEdges(key.Fn) {
		items := s.itemsOnEdge(e, key)
		for range items {
			size := s.profOf[e.From].SizeOf(e.From, e.Output)
			if s.routing[e.From] == c.node {
				// FaaSFlow local-memory data passing for co-located pairs.
				p.Sleep(cacheReadDelay)
				s.noteComm(key.Fn, cacheReadDelay)
			} else {
				p.Sleep(storageLatency)
				d := s.transfer(p, c, size, s.storage, c.ep)
				s.noteComm(key.Fn, d+storageLatency)
			}
		}
	}
	// Entry input comes from the gateway/storage.
	if len(req.prof.Workflow.Predecessors(key.Fn)) == 0 {
		p.Sleep(storageLatency)
		d := s.transfer(p, c, req.prof.InputSize, s.storage, c.ep)
		s.noteComm(key.Fn, d+storageLatency)
	}

	s.compute(p, c, key.Fn)

	// Put phase. FaaSFlow keeps every produced datum in the producer
	// host's memory store until the request completes (it has no
	// data-lifetime knowledge); co-located consumers read it from there,
	// remote consumers additionally fetch it through backend storage.
	f, _ := req.prof.Workflow.Function(key.Fn)
	for _, o := range f.Outputs {
		items := s.routeForCF(req, key, o)
		for _, it := range items {
			size := it.Value.Size
			start := s.env.Now()
			switch {
			case it.To.Fn == workflow.UserSource:
				s.transfer(p, c, size, c.ep, s.user)
			case s.routing[it.To.Fn] == c.node:
				// Local memory data passing.
				p.Sleep(cacheReadDelay)
				c.node.sink.Put(s.env.Now(), cfCacheKey(req.id, it), it.Value, 1)
			default:
				p.Sleep(storageLatency)
				s.transfer(p, c, size, c.ep, s.storage)
				c.node.sink.Put(s.env.Now(), cfCacheKey(req.id, it), it.Value, 1)
			}
			s.noteComm(key.Fn, s.env.Now()-start)
		}
	}
	s.stage(obs.InstanceFinished, key.Fn, key.Idx)
	s.cfComplete(req, key)
}

// sonicExecute runs one instance under SONIC: inputs are fetched p2p from
// the producer's host storage at execution time; outputs are written to the
// local host storage.
func (s *Sim) sonicExecute(p *sim.Proc, c *container, w *work) {
	req, key := w.req, w.key
	s.stage(obs.InstanceStarted, key.Fn, key.Idx)

	for _, e := range s.inputEdges(key.Fn) {
		items := s.itemsOnEdge(e, key)
		for range items {
			size := s.profOf[e.From].SizeOf(e.From, e.Output)
			src := s.routing[e.From]
			start := s.env.Now()
			p.Sleep(diskOpDelay)
			if src == c.node {
				// Local VM storage read.
				s.transfer(p, c, size, c.node.disk, c.ep)
			} else {
				// P2P fetch from the source host.
				s.transfer(p, c, size, src.nic, c.ep)
			}
			s.noteComm(key.Fn, s.env.Now()-start)
		}
	}
	if len(req.prof.Workflow.Predecessors(key.Fn)) == 0 {
		start := s.env.Now()
		p.Sleep(diskOpDelay)
		s.transfer(p, c, req.prof.InputSize, c.node.disk, c.ep)
		s.noteComm(key.Fn, s.env.Now()-start)
	}

	s.compute(p, c, key.Fn)

	f, _ := req.prof.Workflow.Function(key.Fn)
	for _, o := range f.Outputs {
		items := s.routeForCF(req, key, o)
		for _, it := range items {
			start := s.env.Now()
			if it.To.Fn == workflow.UserSource {
				s.transfer(p, c, it.Value.Size, c.ep, s.user)
			} else {
				// Persist to the local host storage; destination fetches later.
				p.Sleep(diskOpDelay)
				s.transfer(p, c, it.Value.Size, c.ep, c.node.disk)
				c.node.sink.Put(s.env.Now(), cfCacheKey(req.id, it), it.Value, 1)
			}
			s.noteComm(key.Fn, s.env.Now()-start)
		}
	}
	s.stage(obs.InstanceFinished, key.Fn, key.Idx)
	s.cfComplete(req, key)
}

// smExecute runs one instance under the centralized state machine: every
// datum crosses the backend storage, no local-cache shortcut.
func (s *Sim) smExecute(p *sim.Proc, c *container, w *work) {
	req, key := w.req, w.key
	s.stage(obs.InstanceStarted, key.Fn, key.Idx)

	for _, e := range s.inputEdges(key.Fn) {
		items := s.itemsOnEdge(e, key)
		for range items {
			size := s.profOf[e.From].SizeOf(e.From, e.Output)
			start := s.env.Now()
			p.Sleep(storageLatency)
			s.transfer(p, c, size, s.storage, c.ep)
			s.noteComm(key.Fn, s.env.Now()-start)
		}
	}
	if len(req.prof.Workflow.Predecessors(key.Fn)) == 0 {
		start := s.env.Now()
		p.Sleep(storageLatency)
		s.transfer(p, c, req.prof.InputSize, s.storage, c.ep)
		s.noteComm(key.Fn, s.env.Now()-start)
	}

	s.compute(p, c, key.Fn)

	f, _ := req.prof.Workflow.Function(key.Fn)
	for _, o := range f.Outputs {
		items := s.routeForCF(req, key, o)
		for _, it := range items {
			start := s.env.Now()
			if it.To.Fn == workflow.UserSource {
				s.transfer(p, c, it.Value.Size, c.ep, s.user)
			} else {
				p.Sleep(storageLatency)
				s.transfer(p, c, it.Value.Size, c.ep, s.storage)
			}
			s.noteComm(key.Fn, s.env.Now()-start)
		}
	}
	s.stage(obs.InstanceFinished, key.Fn, key.Idx)
	s.cfComplete(req, key)
}

// itemsOnEdge returns how many items the instance receives on edge e: a
// MERGE edge collects one item per producer instance; a FOREACH edge
// delivers the one element addressed to this instance; NORMAL one item.
func (s *Sim) itemsOnEdge(e workflow.Edge, key dataflow.InstanceKey) []int {
	n := 1
	if e.Kind == workflow.Merge {
		n = s.instancesOf(e.From)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// routeForCF routes one output for a control-flow system. The tracker is
// reused for its routing tables; delivery bookkeeping is not needed because
// triggering is completion-based.
func (s *Sim) routeForCF(req *request, key dataflow.InstanceKey, o workflow.Output) []dataflow.Item {
	values := s.outputValues(key.Fn, o.Name, o.Kind)
	switchCase := 0
	if o.Kind == workflow.Switch {
		switchCase = s.env.Rand().Intn(len(o.Dests))
	}
	items, err := req.tracker.RouteAppend(nil, key, o.Name, values, switchCase)
	if err != nil {
		panic(fmt.Sprintf("simcluster: cf route: %v", err))
	}
	return items
}

// cfCacheKey is the cache key control-flow systems use for intermediate
// data held on a host (released only at request completion — they lack the
// data-dependency knowledge for proactive release).
func cfCacheKey(reqID string, it dataflow.Item) wmm.Key {
	return wmm.Key{
		ReqID: reqID,
		Fn:    it.To.Fn,
		Data:  fmt.Sprintf("%s@%d<-%s.%s", it.Input, it.To.Idx, it.From, it.Output),
	}
}
