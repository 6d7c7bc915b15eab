package core

import (
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/transport"
)

// This file is the runtime plane's fault-tolerance plane (Config.
// FaultTolerant). The recovery model follows the paper's data-flow
// argument: an instance's inputs wait in a Wait-Match Memory only until it
// fetches them, and the request's arrival log (request.arrivals, the
// cluster.ArrivalLog the sim keeps too) holds every datum landed in a remote
// sink with its key and value until the request completes, so losing a node
// loses only (a) the unfetched data cached in that node's sink — none for an
// in-process node, whose data waits in the request's tracker — and (b) the
// request pins to it — never the request's history. Recovery is therefore
// replay from that log, not checkpointing:
//
//  1. detect — every touch of a route pin (ship's routeFor, land's
//     destination check, the consume path's routeFor) notices a pin whose
//     node went Down;
//  2. repair — the request's dead pins are rewritten to surviving replicas
//     (locality and load rules unchanged, restricted to Up nodes, with a
//     whole-cluster fallback when a function's entire replica set died);
//  3. replay — the log's replay plan, the unfetched records on dead nodes in
//     landing order, is re-put on each record's function's repaired pin under
//     the record's own key. A function's replicas are distinct nodes and a
//     dead node's sink is wiped before it can hold a pin again, so the key
//     names the datum wherever it lands. Handlers are deterministic, so this
//     equals re-executing the producers, without their FLU time or their
//     upstream cone.
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
// replica, then replays the lost data onto the repaired pins in one pass over
// the arrival log. Caller holds r.mu. Pins are updated in place so callers
// iterating r.route by index stay valid.
func (s *System) repairLocked(r *request) {
	for i := range r.route {
		p := &r.route[i]
		if !down(p.node) {
			continue
		}
		// With nothing routable (whole cluster down) the pin stays, rather
		// than replay into another dead sink.
		if next, ordinal, ok := s.selectReplica(s.fns[p.fn], nil); ok {
			p.node, p.ordinal = next, ordinal
		}
	}
	n := 0
	for i := r.arrivals.NextUnfetched(-1, down); i >= 0; i = r.arrivals.NextUnfetched(i, down) {
		a := r.arrivals.At(i)
		p := r.pin(a.Key.Fn) // a datum lands only on its function's pin
		if down(p.node) {
			continue // left dead above: a later repair retries
		}
		if err := p.node.SinkPut(a.Key, a.Val, 1); err != nil {
			// The survivor died too; the next pin touch repairs again.
			s.noteUnreachable(p.node, err)
			continue
		}
		a.Node = p.node
		r.sinkResidue.Add(1)
		n++
	}
	if n > 0 {
		s.replays.Add(int64(n))
		obsReplays.Add(r.stripe, int64(n))
		s.event(r, obs.Replay, "", n)
	}
}

// down reports whether n is Down: the replay plan's dead nodes.
func down(n *cluster.Node) bool { return n.Health() == cluster.Down }

// relandTarget resolves where an in-flight shipment for fn must land after
// its destination died: repair the request's pins, then return fn's (now
// healthy) pin. A missing pin can only mean the request never pinned fn on
// this path (defensive); it is pinned fresh.
func (s *System) relandTarget(r *request, fn string) *cluster.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.repairLocked(r)
	if p := r.pin(fn); p != nil {
		return p.node
	}
	n, o, _ := s.selectReplica(s.fns[fn], nil)
	r.route = append(r.route, routePin{fn: fn, node: n, ordinal: o})
	return n
}

// pin is the request's pin for fn, or nil. Caller holds r.mu.
func (r *request) pin(fn string) *routePin {
	for i := range r.route {
		if r.route[i].fn == fn {
			return &r.route[i]
		}
	}
	return nil
}

// Replays returns how many lost shipments the system has replayed onto
// repaired replicas since start.
func (s *System) Replays() int64 { return s.replays.Load() }
