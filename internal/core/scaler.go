package core

import (
	"repro/internal/cluster"
)

// This file is the elastic half of the routing plane: a background scaler
// that grows and shrinks each function's replica set from two signals —
// the pending-instance queue (demand the current replicas have not
// absorbed) and Eq. 1's pressure estimate (α·Size/Bw − T_FLU positive
// means the function is transfer-bound: its DLU cannot drain as fast as
// its FLU produces, so a single node's NIC is the bottleneck regardless of
// container count). Every change is republished as a new versioned
// cluster.RoutingSnapshot; in-flight requests keep the replica they
// pinned, so a retirement never strands data.

// scaler is the background goroutine driving periodic scale ticks.
func (s *System) scaler() {
	defer s.bg.Done()
	// idleTicks counts consecutive ticks a function spent with an empty
	// pending queue; only this goroutine touches it.
	idleTicks := make(map[string]int, len(s.fnList))
	for {
		select {
		case <-s.stopScaler:
			return
		case <-s.clk.After(s.elastic.Interval):
			s.scaleTick(idleTicks)
		}
	}
}

// scaleTick runs one scaler evaluation. If the cluster's placement policy
// implements cluster.Rebalancer the policy decides the next snapshot;
// otherwise the built-in pending/pressure heuristics grow or shrink each
// replica set by at most one node per tick.
func (s *System) scaleTick(idleTicks map[string]int) {
	if reb, ok := s.cfg.Cluster.Policy().(cluster.Rebalancer); ok {
		loads := make(cluster.Loads, len(s.allNodes))
		for _, n := range s.allNodes {
			loads[n.Name] = float64(s.nodeLoad[n].Load())
		}
		// The policy rebalances over the node universe resolved at
		// NewSystem (nodes registered later have no load counters and are
		// unroutable here), and only the state actually applied is
		// published — so the observable snapshot never claims placements
		// the engine does not route, and the next tick's cur reflects
		// reality.
		next := reb.Rebalance(s.cfg.Cluster.Snapshot(), s.fnNames, s.nodeNames, loads)
		if next != nil {
			s.applySnapshot(next)
			s.publishSnapshot()
		}
		return
	}
	changed := false
	for _, st := range s.fnList {
		if s.ft && s.pruneDeadReplicas(st) {
			changed = true
		}
		reps := st.replicaList()
		k := len(reps)
		pending := st.pending.Load()
		if pending == 0 {
			idleTicks[st.name]++
		} else {
			idleTicks[st.name] = 0
		}
		switch {
		case s.wantScaleUp(st, pending, k) && k < s.elastic.MaxReplicas:
			if n := s.pickNewReplica(reps); n != nil {
				next := make([]*cluster.Node, k+1)
				copy(next, reps)
				next[k] = n
				st.replicas.Store(&next)
				changed = true
				idleTicks[st.name] = 0
			}
		case k > 1 && idleTicks[st.name] >= s.elastic.ScaleDownTicks:
			// Retire the most recently added replica. Requests already
			// pinned to it finish there (the node and its containers stay);
			// new requests stop selecting it, and its idle containers age
			// out through the keep-alive reaper.
			next := make([]*cluster.Node, k-1)
			copy(next, reps[:k-1])
			st.replicas.Store(&next)
			changed = true
			idleTicks[st.name] = 0
		}
	}
	if changed {
		s.publishSnapshot()
	}
}

// wantScaleUp decides whether fn needs another replica: either the pending
// queue outgrew the replica set, or Eq. 1 reports sustained transfer
// pressure while demand exceeds the replica count.
func (s *System) wantScaleUp(st *fnState, pending int64, k int) bool {
	if pending > s.elastic.ScaleUpPending*int64(k) {
		return true
	}
	if pending <= int64(k) {
		return false
	}
	return s.transferPressure(st) > 0
}

// pickNewReplica returns the least-loaded node not already in the replica
// set (registration order breaks ties), or nil when every node hosts one.
// Under the fault-tolerance plane, non-Up nodes have zero capacity and are
// never picked.
func (s *System) pickNewReplica(reps []*cluster.Node) *cluster.Node {
	eligible := func(n *cluster.Node) bool {
		if s.ft && !n.Routable() {
			return false
		}
		for _, r := range reps {
			if r == n {
				return false
			}
		}
		return true
	}
	i, ok := cluster.PickReplica(s.allNodes, nil, eligible, func(n *cluster.Node) int64 { return s.nodeLoad[n].Load() })
	if !ok {
		return nil
	}
	return s.allNodes[i]
}

// pruneDeadReplicas removes Down nodes from the function's replica set and
// backfills from the healthy remainder of the cluster when the set would
// empty — the scaler's half of failover: failed nodes are zero-capacity,
// and lost replicas are replaced so the set's breadth survives the death.
// Returns whether the set changed. In-flight pins are per-request state and
// unaffected (their repair happens on the request's own path).
func (s *System) pruneDeadReplicas(st *fnState) bool {
	reps := st.replicaList()
	dead := 0
	for _, n := range reps {
		if n.Health() == cluster.Down {
			dead++
		}
	}
	if dead == 0 {
		return false
	}
	next := make([]*cluster.Node, 0, len(reps))
	for _, n := range reps {
		if n.Health() != cluster.Down {
			next = append(next, n)
		}
	}
	if add := s.pickNewReplica(next); add != nil {
		// Backfill one replacement per tick (same one-step cadence as the
		// load heuristics); the next tick backfills further if demand holds.
		next = append(next, add)
	}
	if len(next) == 0 {
		// Whole cluster unroutable: keep the dead set rather than leaving
		// the function with no replicas at all.
		return false
	}
	st.replicas.Store(&next)
	return true
}

// publishSnapshot rebuilds the routing snapshot from the live replica sets
// (load hints from the in-flight instance counters; under QoS, with the
// per-tenant breakdown so policies see whose pressure a node carries) and
// publishes it.
func (s *System) publishSnapshot() {
	sets := make(map[string][]cluster.Replica, len(s.fnList))
	for _, st := range s.fnList {
		reps := st.replicaList()
		rs := make([]cluster.Replica, len(reps))
		for i, n := range reps {
			rs[i] = cluster.Replica{
				Node:       n.Name,
				Load:       float64(s.nodeLoad[n].Load()),
				TenantLoad: s.tenantLoadHints(n),
			}
		}
		sets[st.name] = rs
	}
	s.cfg.Cluster.Publish(cluster.NewRoutingSnapshot(sets))
}

// applySnapshot mirrors a policy-produced snapshot into the per-function
// replica sets. Functions the snapshot leaves out — or maps to nodes the
// system does not know — keep their current replicas (a rebalance must
// never leave a function unroutable). Membership is checked against the
// load table resolved at NewSystem, not the live cluster: a node
// registered after NewSystem has no load counter, and handing it to the
// hot path's replica selection would dereference a nil counter.
func (s *System) applySnapshot(snap *cluster.RoutingSnapshot) {
	for _, st := range s.fnList {
		reps := snap.Replicas(st.name)
		if len(reps) == 0 {
			continue
		}
		nodes := make([]*cluster.Node, 0, len(reps))
		for _, r := range reps {
			if n, ok := s.cfg.Cluster.Node(r.Node); ok {
				if _, known := s.nodeLoad[n]; known {
					if s.ft && n.Health() == cluster.Down {
						continue // dead nodes are zero-capacity
					}
					nodes = append(nodes, n)
				}
			}
		}
		if len(nodes) == 0 {
			continue
		}
		st.replicas.Store(&nodes)
	}
}
