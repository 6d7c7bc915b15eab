package simcluster

import (
	"sort"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wmm"
	"repro/internal/workflow"
)

// This file is the simulation plane's fault-tolerance mirror of the runtime
// plane (core/failover.go): scheduled node kills/recoveries/drains, request
// pin repair, and deterministic re-execution of exactly the work a dead
// node lost — replaying producers from their WMM-retained inputs and
// re-shipping only the lost outputs. Every fault-only code path is gated on
// s.faulty (set iff Config.Faults is non-empty), so a fault-free run is
// event-for-event identical to the classic engine and the paper figures
// stay byte-stable.

// FaultKind classifies a scheduled fault event.
type FaultKind int

// Fault kinds.
const (
	// KillNode takes the node down: its containers die, its Wait-Match
	// Memory is wiped, queued work and shipments are replayed elsewhere.
	KillNode FaultKind = iota
	// RecoverNode returns a killed or draining node to service (empty: its
	// state died with it).
	RecoverNode
	// DrainNode stops new request pins; in-flight work completes in place.
	DrainNode
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case KillNode:
		return "kill"
	case RecoverNode:
		return "recover"
	default:
		return "drain"
	}
}

// FaultEvent schedules one health transition at a virtual time. Node names
// follow the worker naming scheme ("w1".."wN"). Supported for the
// DataFlower kinds; the control-flow baselines have no failover story.
type FaultEvent struct {
	At   time.Duration
	Node string
	Kind FaultKind
}

// landRec is one sink-cached item of a request: where it landed, under
// which key, for which instance, and whether that instance has already
// fetched it (consumed data needs no replay).
type landRec struct {
	node     *node
	key      wmm.Key
	it       dataflow.Item
	to       dataflow.InstanceKey
	consumed bool
}

// armFaults schedules the configured fault events (called from New).
func (s *Sim) armFaults() {
	s.faulty = len(s.cfg.Faults) > 0
	s.recoveryLat = metrics.NewSample()
	if !s.faulty {
		return
	}
	s.inflight = make(map[*request]struct{})
	for _, fe := range s.cfg.Faults {
		fe := fe
		s.env.ScheduleAt(fe.At, func() { s.applyFault(fe) })
	}
}

// applyFault dispatches one scheduled health transition. Edge cases are
// deterministic no-ops, never state corruption: killing an already-Down
// node changes nothing (killNode's guard), draining a Down node changes
// nothing (a dead node has no new pins to refuse, and a recover must bring
// it back Up, not Draining), and recovering a node that is neither down nor
// draining changes nothing — in particular it never wipes a healthy node's
// sink. Recovering a Draining node returns it to service, as documented on
// RecoverNode.
func (s *Sim) applyFault(fe FaultEvent) {
	var n *node
	for _, cand := range s.nodes {
		if cand.name == fe.Node {
			n = cand
			break
		}
	}
	if n == nil {
		return // Validate rejects out-of-range nodes up front
	}
	switch fe.Kind {
	case KillNode:
		s.killNode(n)
	case RecoverNode:
		if n.down {
			// A recovered node comes back empty: strays landed into the
			// wiped sink during the outage (all-replicas-down limping) must
			// not survive it.
			n.sink.Clear(s.env.Now())
		}
		n.down = false
		n.draining = false
	case DrainNode:
		if !n.down {
			n.draining = true
		}
	}
}

// killNode applies a node death: the sink's data is lost, containers die
// (memory freed, DLU daemons stopped), queued work and shipments are
// collected, every in-flight request's pins to the node are cleared, and a
// recovery process per touched request replays what was lost.
func (s *Sim) killNode(n *node) {
	if n.down {
		return
	}
	n.down = true
	now := s.env.Now()
	n.sink.Clear(now)

	lostWork := make(map[*request][]*work)
	lostShip := make(map[*request][]*dluShipment)
	for _, c := range s.ctrs {
		if c.node != n || c.dead {
			continue
		}
		c.dead = true
		s.memInt.AddDelta(now, -float64(s.cfg.MemMB)/1024)
		for {
			v, ok := c.dluQ.TryGet()
			if !ok {
				break
			}
			sh := v.(*dluShipment)
			lostShip[sh.req] = append(lostShip[sh.req], sh)
		}
		c.dluQ.Close()
	}
	// Map iteration order is randomized; every loop below walks sorted keys
	// so the recovery work a kill spawns is ordered identically run to run
	// (the determinism the scenario harness's byte-identical reports pin).
	for _, fn := range sortedFnKeys(n.fns) {
		fs := n.fns[fn]
		for {
			if _, ok := fs.idleQ.TryGet(); !ok {
				break // corpses; acquire also skips any that slip back in
			}
		}
		for {
			wi, ok := fs.workQ.TryGet()
			if !ok {
				break
			}
			w := wi.(*work)
			lostWork[w.req] = append(lostWork[w.req], w)
		}
		*fs.fnStarted -= fs.started
		fs.started = 0
	}
	// Primaries hosted on the dead node move to a survivor (the prewarm and
	// control-flow paths route through s.routing).
	routed := make([]string, 0, len(s.routing))
	for fn := range s.routing {
		routed = append(routed, fn)
	}
	sort.Strings(routed)
	for _, fn := range routed {
		if s.routing[fn] == n {
			// The first routable replica (a constant load makes every pick a
			// tie, and the earliest wins), backfilled like any other pick.
			s.routing[fn] = s.pickNode(fn, nil, func(*node) int64 { return 0 })
		}
	}

	inflight := make([]*request, 0, len(s.inflight))
	for req := range s.inflight {
		inflight = append(inflight, req)
	}
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].seq < inflight[j].seq })
	for _, req := range inflight {
		if req.failed || req.done.Triggered() {
			continue
		}
		touched := false
		for fn, p := range req.pin {
			if p == n {
				delete(req.pin, fn)
				touched = true
			}
		}
		var lost []int
		for i := range req.landed {
			rec := &req.landed[i]
			if rec.node == n && !rec.consumed {
				lost = append(lost, i)
			}
		}
		works, ships := lostWork[req], lostShip[req]
		if !touched && len(lost) == 0 && len(works) == 0 && len(ships) == 0 {
			continue
		}
		if !req.recovering {
			req.recovering = true
			req.recoverStart = now
		}
		req2, lost2, works2, ships2 := req, lost, works, ships
		s.env.Go(func(p *sim.Proc) {
			s.recoverRequest(p, req2, lost2, works2, ships2)
		})
	}
}

// sortedFnKeys returns a node's hosted function names in sorted order, for
// deterministic iteration.
func sortedFnKeys(fns map[string]*fnState) []string {
	keys := make([]string, 0, len(fns))
	for fn := range fns {
		keys = append(keys, fn)
	}
	sort.Strings(keys)
	return keys
}

// ensureReplica makes sure n hosts a replica of fn (fnState + dispatcher),
// sharing the function's global container counter.
func (s *Sim) ensureReplica(fn string, n *node) *fnState {
	if fs, ok := n.fns[fn]; ok {
		return fs
	}
	shared := s.replicas[fn][0].fns[fn].fnStarted
	fs := &fnState{
		fn:        fn,
		node:      n,
		workQ:     sim.NewQueue(s.env, 0),
		idleQ:     sim.NewQueue(s.env, 0),
		fnStarted: shared,
	}
	n.fns[fn] = fs
	s.replicas[fn] = append(s.replicas[fn], n)
	s.env.Go(func(p *sim.Proc) { s.dispatcher(p, fs) })
	return fs
}

// recoverRequest replays what a node death cost one request, in dependency
// order: first the landed-but-unconsumed items (deterministically
// re-executing their producers — whose own inputs the WMM retained — and
// re-shipping onto the repaired replicas), then the instance triggers that
// were queued on the dead node, then the shipments its DLU daemons never
// pumped (their producers re-execute and the items take the normal deliver
// path, since the tracker never saw them).
func (s *Sim) recoverRequest(p *sim.Proc, req *request, lost []int, works []*work, ships []*dluShipment) {
	for _, i := range lost {
		if req.failed || req.done.Triggered() {
			return
		}
		rec := &req.landed[i]
		dst := s.replicaFor(req, rec.to.Fn, nil)
		if rec.it.From.Fn == workflow.UserSource {
			// The entry input is replayed from the load generator.
			s.transfer(p, nil, rec.it.Value.Size, s.user, dst.nic)
		} else {
			// Re-execute the producer on its (repaired) replica, reading its
			// retained inputs locally, then re-ship the lost output.
			src := s.replicaFor(req, rec.it.From.Fn, nil)
			d := s.execTime(rec.it.From.Fn)
			p.Sleep(d)
			s.noteComp(rec.it.From.Fn, d)
			if src == dst {
				p.Sleep(localPipeDelay)
			} else {
				p.Sleep(remotePipeDelay)
				s.transfer(p, nil, rec.it.Value.Size, src.nic, dst.nic)
			}
		}
		dst.sink.Put(s.env.Now(), rec.key, rec.it.Value, 1)
		rec.node = dst
		s.replays++
	}
	for _, w := range works {
		if req.failed || req.done.Triggered() {
			return
		}
		fs := s.replicaFor(req, w.key.Fn, nil).fns[w.key.Fn]
		fs.workQ.TryPut(w)
	}
	for _, sh := range ships {
		s.recoverShipment(p, sh)
	}
}

// recoverShipment re-executes a producer whose routed-but-unshipped outputs
// died with its DLU daemon, then ships the items through the normal deliver
// path (the tracker never saw them, so delivery bookkeeping is exact).
func (s *Sim) recoverShipment(p *sim.Proc, sh *dluShipment) {
	req := sh.req
	if req.failed || req.done.Triggered() {
		return
	}
	src := s.replicaFor(req, sh.from.Fn, nil)
	d := s.execTime(sh.from.Fn)
	p.Sleep(d)
	s.noteComp(sh.from.Fn, d)
	for _, it := range sh.items {
		if req.failed || req.done.Triggered() {
			return
		}
		if it.To.Fn == workflow.UserSource {
			p.Sleep(remotePipeDelay)
			s.transfer(p, nil, it.Value.Size, src.nic, s.user)
			s.dfDeliver(req, it)
			continue
		}
		dst := s.replicaFor(req, it.To.Fn, src)
		if dst == src {
			p.Sleep(localPipeDelay)
		} else {
			p.Sleep(remotePipeDelay)
			s.transfer(p, nil, it.Value.Size, src.nic, dst.nic)
		}
		toIdx := it.To.Idx
		if toIdx == dataflow.BroadcastIdx {
			toIdx = 0
		}
		key := dfSinkKey(req.id, dataflow.InstanceKey{Fn: it.To.Fn, Idx: toIdx}, it.Input, it.From.Fn, it.From.Idx, it.Output)
		dst.sink.Put(s.env.Now(), key, it.Value, 1)
		s.recordLanded(req, dst, key, it)
		s.dfDeliver(req, it)
	}
	s.replays++
}

// recordLanded appends a landed-item record (fault runs only).
func (s *Sim) recordLanded(req *request, n *node, key wmm.Key, it dataflow.Item) {
	toIdx := it.To.Idx
	if toIdx == dataflow.BroadcastIdx {
		toIdx = 0
	}
	req.landed = append(req.landed, landRec{
		node: n, key: key, it: it,
		to: dataflow.InstanceKey{Fn: it.To.Fn, Idx: toIdx},
	})
}

// markConsumed flags the instance's landed records as fetched.
func (s *Sim) markConsumed(req *request, key dataflow.InstanceKey) {
	for i := range req.landed {
		rec := &req.landed[i]
		if rec.to == key {
			rec.consumed = true
		}
	}
}
