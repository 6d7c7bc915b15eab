package simcluster

import (
	"sort"
	"time"

	"repro/internal/sim"
)

// This file is the simulation plane's fault-tolerance plane, the recovery
// the runtime plane runs (core/failover.go): scheduled node kills,
// recoveries and drains. A kill loses what cluster.FailNode loses — the
// node's Wait-Match Memory and the request pins that point at it — and
// nothing else: containers, their DLU queues and queued instances survive,
// and no function runs again. Recovery repairs each touched request's pins
// with the pick both planes share (cluster.SelectReplica) and re-ships every
// lost, still unfetched item from the coordinator's log (the load
// generator's endpoint) to the repaired pin. That log is the request's
// arrival log, which every run keeps: instances fetch their inputs from it.
// s.faulty (set iff Config.Faults is non-empty) gates the fault-only code
// paths — the in-flight request set, the pin of a single-replica function
// and the re-land of a shipment whose destination died — so a fault-free
// run is event-for-event identical to the classic engine and the paper
// figures stay byte-stable.

// FaultKind classifies a scheduled fault event.
type FaultKind int

// Fault kinds.
const (
	// KillNode takes the node down, as cluster.FailNode does: its Wait-Match
	// Memory is wiped and pins to it are repaired; the unfetched items it
	// held are re-shipped from the coordinator to the repaired pins. Its
	// containers, DLU queues and queued instances run on.
	KillNode FaultKind = iota
	// RecoverNode returns a killed or draining node to service; a killed
	// node's sink comes back empty.
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

// armFaults schedules the configured fault events (called from New).
func (s *Sim) armFaults() {
	s.faulty = len(s.cfg.Faults) > 0
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

// killNode applies a node death: the sink's data is lost and every
// in-flight request's pins to the node are cleared (the next touch re-pins
// it through pickNode); a recovery process per touched request replays what
// the sink lost.
func (s *Sim) killNode(n *node) {
	if n.down {
		return
	}
	n.down = true
	now := s.env.Now()
	n.sink.Clear(now)
	dead := func(m *node) bool { return m == n }
	// Map iteration order is randomized; requests are walked in arrival
	// order so the recovery work a kill spawns is ordered identically run to
	// run (the determinism the scenario harness's byte-identical reports pin).
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
		for i := req.arrivals.NextUnfetched(-1, dead); i >= 0; i = req.arrivals.NextUnfetched(i, dead) {
			lost = append(lost, i)
		}
		if !touched && len(lost) == 0 {
			continue
		}
		if !req.recovering {
			req.recovering = true
			req.recoverStart = now
		}
		req2, lost2 := req, lost
		s.env.Go(func(p *sim.Proc) { s.recoverRequest(p, req2, lost2) })
	}
}

// recoverRequest replays what a node death cost one request: each lost item
// is re-shipped from the coordinator to its function's repaired pin and
// lands there under its old key.
func (s *Sim) recoverRequest(p *sim.Proc, req *request, lost []int) {
	for _, i := range lost {
		if req.failed || req.done.Triggered() {
			return
		}
		a := req.arrivals.At(i)
		dst := s.replicaFor(req, a.Key.Fn, nil)
		s.transfer(p, nil, a.Val.Size, s.user, dst.nic)
		dst.sink.Put(s.env.Now(), a.Key, a.Val, 1)
		a.Node = dst
		s.replays++
	}
}
