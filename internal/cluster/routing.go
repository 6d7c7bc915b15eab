package cluster

// This file is the cluster's routing plane: the RoutingSnapshot (function
// -> ordered replica set), the placement policies that produce it, and the
// replica pick both planes share. A function's replica set is what its
// policy returned at placement and never changes afterwards; node health is
// a per-pick predicate (PickReplica's routable) and a filter applied once
// at placement (Cluster.Place), not an edit of the set.

// Replica is one placement of a function on a node.
type Replica struct {
	Node string
}

// RoutingSnapshot is one immutable state of the routing plane: every
// function's ordered replica set (the first replica is the primary,
// preserving the single-owner semantics). Snapshots are built by placement
// policies and must never be mutated afterwards.
type RoutingSnapshot struct {
	sets map[string][]Replica
}

// Replicas returns fn's ordered replica set (primary first). Callers must
// treat the returned slice as read-only.
func (s *RoutingSnapshot) Replicas(fn string) []Replica {
	if s == nil {
		return nil
	}
	return s.sets[fn]
}

// RoutingTable maps each function to the node hosting its primary replica:
// the flattened, single-owner view of the routing plane that
// core.System.Routing returns for the CLI to print.
type RoutingTable map[string]string

// PlacementPolicy decides which nodes host each function. DataFlower
// exposes this interface so custom balancers can plug in (§6.1).
type PlacementPolicy interface {
	// Place assigns every function an ordered, non-empty replica set drawn
	// from nodes.
	Place(functions []string, nodes []string) *RoutingSnapshot
}

// SelectReplica is the pick both planes make for a new or repaired pin:
// PickReplica over reps, and when no member is routable a backfill —
// PickReplica over all with no preference — that serves under ordinal
// len(reps)+i, past the set, so a backfilled pin never shares a member's
// ordinal (nor, on the runtime plane, its sink keys). The set itself is
// not touched. With nothing routable in either it returns reps[0], 0 and
// ok=false: a new pin limps on the primary, a repair leaves its pin alone.
func SelectReplica[N comparable](reps, all []N, prefer N, routable func(N) bool, load func(N) int64) (n N, ordinal int, ok bool) {
	if i, ok := PickReplica(reps, prefer, routable, load); ok {
		return reps[i], i, true
	}
	var none N
	if i, ok := PickReplica(all, none, routable, load); ok {
		return all[i], len(reps) + i, true
	}
	return reps[0], 0, false
}

// PickReplica is one pass of the replica decision: among reps that pass
// routable, prefer itself when it is a member (locality-first — the
// producer's output skips the network ship), else the lowest load reading
// (the earlier replica wins a tie). It returns the chosen index, or
// ok=false when nothing is routable. A fault-oblivious caller passes an
// always-true predicate.
func PickReplica[N comparable](reps []N, prefer N, routable func(N) bool, load func(N) int64) (idx int, ok bool) {
	for i, n := range reps {
		if n == prefer && routable(n) {
			return i, true // no load is read when locality answers
		}
	}
	var best int64
	for i, n := range reps {
		if !routable(n) {
			continue
		}
		if l := load(n); !ok || l < best {
			idx, best, ok = i, l, true
		}
	}
	return idx, ok
}

// replicaSet builds the k-replica set starting at nodes[start], wrapping
// round-robin.
func replicaSet(nodes []string, start, k int) []Replica {
	if k > len(nodes) {
		k = len(nodes)
	}
	reps := make([]Replica, 0, k)
	for j := 0; j < k; j++ {
		reps = append(reps, Replica{Node: nodes[(start+j)%len(nodes)]})
	}
	return reps
}

// RoundRobin is the default placement policy: functions are assigned to
// nodes in declaration order, round-robin. Replicas > 1 gives every
// function that many consecutive nodes (primary first); the zero value
// reproduces the classic one-node-per-function placement exactly.
type RoundRobin struct {
	// Replicas is the per-function replica count (1 when <= 1).
	Replicas int
}

// Place implements PlacementPolicy.
func (r RoundRobin) Place(functions []string, nodes []string) *RoutingSnapshot {
	sets := make(map[string][]Replica, len(functions))
	if len(nodes) == 0 {
		return &RoutingSnapshot{sets: sets}
	}
	k := r.Replicas
	if k < 1 {
		k = 1
	}
	for i, fn := range functions {
		sets[fn] = replicaSet(nodes, i%len(nodes), k)
	}
	return &RoutingSnapshot{sets: sets}
}

// SingleNode places every function on the same node (used by the
// early-triggering experiment, which removes the network).
type SingleNode struct{ Node string }

// Place implements PlacementPolicy.
func (s SingleNode) Place(functions []string, nodes []string) *RoutingSnapshot {
	sets := make(map[string][]Replica, len(functions))
	target := s.Node
	if target == "" && len(nodes) > 0 {
		target = nodes[0]
	}
	for _, fn := range functions {
		sets[fn] = []Replica{{Node: target}}
	}
	return &RoutingSnapshot{sets: sets}
}
