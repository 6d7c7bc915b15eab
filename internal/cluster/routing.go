package cluster

import "sort"

// This file is the cluster's routing plane: the versioned RoutingSnapshot
// (function -> ordered replica set), the placement policies that produce
// it, and the replica pick both planes share. A function's replica set is
// what its policy returned at placement and never changes afterwards; node
// health is a per-pick predicate (PickReplica's routable) and a filter on
// the published snapshot (Cluster.Publish), not an edit of the set.
//
// Snapshots are immutable after publication and are distributed through an
// atomic pointer (Cluster.Publish / Cluster.Snapshot), so routing reads
// never take a lock and never observe a half-written table — the same
// publish-then-swap discipline disaggregated-memory programming models use
// for shared metadata.

// Replica is one placement of a function on a node.
type Replica struct {
	Node string
}

// RoutingSnapshot is one immutable, versioned state of the routing plane:
// every function's ordered replica set (the first replica is the primary,
// preserving the single-owner semantics). Snapshots are built by placement
// policies, stamped with a monotonically increasing version at
// publication, and must never be mutated afterwards.
type RoutingSnapshot struct {
	// Version is assigned by Cluster.Publish; 0 means unpublished.
	Version uint64

	sets map[string][]Replica
}

// NewRoutingSnapshot builds an unpublished snapshot from the given replica
// sets, copying them so the caller's maps and slices stay free.
func NewRoutingSnapshot(sets map[string][]Replica) *RoutingSnapshot {
	cp := make(map[string][]Replica, len(sets))
	for fn, reps := range sets {
		cp[fn] = append([]Replica(nil), reps...)
	}
	return &RoutingSnapshot{sets: cp}
}

// Replicas returns fn's ordered replica set (primary first). Callers must
// treat the returned slice as read-only.
func (s *RoutingSnapshot) Replicas(fn string) []Replica {
	if s == nil {
		return nil
	}
	return s.sets[fn]
}

// Primary returns the node hosting fn's primary replica.
func (s *RoutingSnapshot) Primary(fn string) (string, bool) {
	reps := s.Replicas(fn)
	if len(reps) == 0 {
		return "", false
	}
	return reps[0].Node, true
}

// Functions returns the placed function names in sorted order.
func (s *RoutingSnapshot) Functions() []string {
	if s == nil {
		return nil
	}
	out := make([]string, 0, len(s.sets))
	for fn := range s.sets {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// RoutingTable maps each function to the node hosting its primary replica:
// the flattened, single-owner view of the routing plane that
// core.System.Routing returns for the CLI to print.
type RoutingTable map[string]string

// PlacementPolicy decides which nodes host each function. DataFlower
// exposes this interface so custom balancers can plug in (§6.1).
type PlacementPolicy interface {
	// Place assigns every function an ordered, non-empty replica set drawn
	// from nodes. The returned snapshot is unpublished (Version 0).
	Place(functions []string, nodes []string) *RoutingSnapshot
}

// PickReplica is the replica decision both planes make: among reps that
// pass routable, prefer itself when it is a member (locality-first — the
// producer's output skips the network ship), else the lowest load reading
// (the earlier replica wins a tie). It returns the chosen index, or
// ok=false when nothing is routable. A fault-oblivious caller passes an
// always-true predicate; a backfill is a second call over the node
// universe with N's zero value as prefer.
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
