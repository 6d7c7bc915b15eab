package core

import (
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/transport"
)

// This file is the runtime plane's fault-tolerance plane (Config.
// FaultTolerant). The recovery model follows the paper's data-flow
// argument: an instance's inputs wait in a Wait-Match Memory only until it
// fetches them, and the coordinator's own arrived log (request.arrived)
// keeps every landed item with its payload until the request completes, so
// losing a node loses only (a) the unfetched data cached in that node's sink
// and (b) the instances pinned there — never the request's history.
// Recovery is therefore replay from that log, not checkpointing:
//
//  1. detect — every touch of a route pin (ship's routeFor, land's
//     destination check, the consume path's routeFor) notices a pin whose
//     node went Down;
//  2. repair — the request's dead pins are rewritten to surviving replicas
//     (locality and load rules unchanged, restricted to Up nodes, with a
//     whole-cluster fallback when a function's entire replica set died);
//  3. replay — exactly the shipments whose landed copies were lost (the
//     un-consumed arrived items recorded on the dead node) are re-shipped
//     from the arrived log to the repaired replica. Handlers are
//     deterministic, so this equals re-executing the producers, without
//     their FLU time or their upstream cone.
//
// Detection is best-effort per touch: a node that dies between a health
// check and the following sink access simply yields a sink miss (the entry
// is gone either way), and the next touch of the pin repairs it. The
// request's tracker state is engine-local and never lost, so replay can
// only run ahead of, never behind, the data-availability bookkeeping.

// noteUnreachable classifies a data-plane error. When the fault-tolerance
// plane is on and the error is a liveness failure (transport.Unreachable:
// timeouts, connection resets, closed transports), the node is marked Down —
// the wire itself is the failure detector, no injected booleans — and the
// caller should repair and re-land on a survivor. Protocol errors
// (ErrBadFrame, ErrFrameTooLarge) and every error in fault-oblivious mode
// return false: they are the caller's to surface.
func (s *System) noteUnreachable(n *cluster.Node, err error) bool {
	if !s.ft || !transport.Unreachable(err) {
		return false
	}
	if n.Health() != cluster.Down {
		s.cfg.Cluster.MarkUnreachable(n.Name) //nolint:errcheck // n came from the cluster's own registry
	}
	return true
}

// repairLocked rewrites every dead pin of the request onto a surviving
// replica and replays the lost data there. Caller holds r.mu. Pins are
// updated in place so callers iterating r.route by index stay valid.
func (s *System) repairLocked(r *request) {
	for i := range r.route {
		dead := r.route[i].node
		if dead.Health() != cluster.Down {
			continue
		}
		st := s.fns[r.route[i].fn]
		next, ordinal, ok := s.selectReplica(st, nil)
		if !ok {
			// Nothing is routable (whole cluster down): leave the pin rather
			// than replay into another dead sink.
			continue
		}
		r.route[i].node = next
		r.route[i].ordinal = ordinal
		n := s.replayLocked(r, st.name, dead, next, ordinal)
		s.replays.Add(int64(n))
		obsReplays.Add(r.stripe, int64(n))
		s.event(r, obs.Replay, st.name, n)
	}
}

// replayLocked re-lands the request's lost items for fn — those recorded on
// dead and not yet consumed by their instance — on the repaired node,
// returning how many shipments were replayed. The arrived records are
// updated in place (key, node, replica ordinal) so the consume path and
// teardown address the survivor's sink. Caller holds r.mu.
func (s *System) replayLocked(r *request, fn string, dead, next *cluster.Node, ordinal int) int {
	replayed := 0
	for b := range r.arrived {
		bucket := &r.arrived[b]
		if bucket.key.Fn != fn || bucket.consumed {
			continue
		}
		for j := range bucket.items {
			ai := &bucket.items[j]
			if ai.node != dead {
				continue
			}
			ai.item.Replica = ordinal
			ai.key = sinkKey(r.inv.ReqID(), ai.item)
			ai.node = next
			if err := next.SinkPut(ai.key, ai.item.Value, 1); err != nil {
				// The survivor died too; the next pin touch repairs again.
				s.noteUnreachable(next, err)
				continue
			}
			r.sinkResidue.Add(1)
			replayed++
		}
	}
	return replayed
}

// relandTarget resolves where an in-flight shipment for fn must land after
// its destination died: repair the request's pins, then return fn's (now
// healthy) pin. A missing pin can only mean the request never pinned fn on
// this path (defensive); it is pinned fresh.
func (s *System) relandTarget(r *request, fn string) (*cluster.Node, int) {
	st := s.fns[fn]
	r.mu.Lock()
	defer r.mu.Unlock()
	s.repairLocked(r)
	for i := range r.route {
		if r.route[i].fn == fn {
			return r.route[i].node, r.route[i].ordinal
		}
	}
	n, o, _ := s.selectReplica(st, nil)
	r.route = append(r.route, routePin{fn: fn, node: n, ordinal: o})
	return n, o
}

// markConsumed flags the instance's arrived bucket as consumed. Caller
// holds r.mu.
func (r *request) markConsumed(key dataflow.InstanceKey) {
	for i := range r.arrived {
		if r.arrived[i].key == key {
			r.arrived[i].consumed = true
			return
		}
	}
}

// Replays returns how many lost shipments the system has replayed onto
// repaired replicas since start.
func (s *System) Replays() int64 { return s.replays.Load() }
