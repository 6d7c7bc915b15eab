package cluster

import "sort"

// This file is the cluster's routing plane: the versioned RoutingSnapshot
// (function -> ordered replica set with per-replica load hints), the
// placement policies that produce snapshots, and the optional Rebalancer
// hook a load-driven scaler consults before applying its own heuristics.
//
// Snapshots are immutable after publication and are distributed through an
// atomic pointer (Cluster.Publish / Cluster.Snapshot), so routing reads on
// the engine's hot path never take a lock and never observe a half-written
// table — the same publish-then-swap discipline disaggregated-memory
// programming models use for shared metadata.

// Loads carries per-node load readings, keyed by node name. Higher means
// busier. The reading's unit is caller-defined (the cluster's default is
// live container count; the runtime engine feeds its in-flight instance
// counters).
type Loads map[string]float64

// Clone returns a copy of the load map.
func (l Loads) Clone() Loads {
	out := make(Loads, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Replica is one placement of a function on a node. Load is the hint
// observed when the snapshot was built — a routing tiebreaker, not a live
// counter. TenantLoad, when the admission & QoS plane is on, breaks the
// node's in-flight load down per tenant at build time, so placement
// policies (and least-loaded pinning) can see which tenant's pressure a
// node carries; nil otherwise. Snapshots are immutable after publication,
// and that covers TenantLoad: builders hand over a fresh map per replica.
type Replica struct {
	Node       string
	Load       float64
	TenantLoad map[string]float64
}

// RoutingSnapshot is one immutable, versioned state of the routing plane:
// every function's ordered replica set (the first replica is the primary,
// preserving the pre-elastic single-owner semantics). Snapshots are built
// by placement policies or scalers, stamped with a monotonically increasing
// version at publication, and must never be mutated afterwards.
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

// Table flattens the snapshot into the legacy single-owner routing table:
// each function mapped to its primary replica's node.
func (s *RoutingSnapshot) Table() RoutingTable {
	if s == nil {
		return RoutingTable{}
	}
	rt := make(RoutingTable, len(s.sets))
	for fn, reps := range s.sets {
		if len(reps) > 0 {
			rt[fn] = reps[0].Node
		}
	}
	return rt
}

// RoutingTable maps each function to the node hosting its primary replica —
// the flattened, single-owner view of a RoutingSnapshot kept for callers
// (CLI, control-flow baseline) that predate replica sets.
type RoutingTable map[string]string

// Clone returns a copy of the table.
func (rt RoutingTable) Clone() RoutingTable {
	out := make(RoutingTable, len(rt))
	for k, v := range rt {
		out[k] = v
	}
	return out
}

// PlacementPolicy decides which nodes host each function. DataFlower
// exposes this interface so custom balancers can plug in (§6.1); loads
// carries the per-node load readings current at placement time (possibly
// nil on first placement).
type PlacementPolicy interface {
	// Place assigns every function an ordered, non-empty replica set drawn
	// from nodes. The returned snapshot is unpublished (Version 0).
	Place(functions []string, nodes []string, loads Loads) *RoutingSnapshot
}

// Rebalancer is an optional PlacementPolicy extension: a background scaler
// offers the policy the current snapshot and fresh load readings, and the
// policy returns a replacement snapshot — or nil to keep the current one.
// Policies that do not implement it get the scaler's built-in heuristics.
type Rebalancer interface {
	Rebalance(cur *RoutingSnapshot, functions []string, nodes []string, loads Loads) *RoutingSnapshot
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
// round-robin and annotating each replica with its load hint.
func replicaSet(nodes []string, start, k int, loads Loads) []Replica {
	if k > len(nodes) {
		k = len(nodes)
	}
	reps := make([]Replica, 0, k)
	for j := 0; j < k; j++ {
		name := nodes[(start+j)%len(nodes)]
		reps = append(reps, Replica{Node: name, Load: loads[name]})
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
func (r RoundRobin) Place(functions []string, nodes []string, loads Loads) *RoutingSnapshot {
	sets := make(map[string][]Replica, len(functions))
	if len(nodes) == 0 {
		return &RoutingSnapshot{sets: sets}
	}
	k := r.Replicas
	if k < 1 {
		k = 1
	}
	for i, fn := range functions {
		sets[fn] = replicaSet(nodes, i%len(nodes), k, loads)
	}
	return &RoutingSnapshot{sets: sets}
}

// SingleNode places every function on the same node (used by the
// early-triggering experiment, which removes the network).
type SingleNode struct{ Node string }

// Place implements PlacementPolicy.
func (s SingleNode) Place(functions []string, nodes []string, loads Loads) *RoutingSnapshot {
	sets := make(map[string][]Replica, len(functions))
	target := s.Node
	if target == "" && len(nodes) > 0 {
		target = nodes[0]
	}
	for _, fn := range functions {
		sets[fn] = []Replica{{Node: target, Load: loads[target]}}
	}
	return &RoutingSnapshot{sets: sets}
}

// LeastLoaded places every function on the k least-loaded nodes (stable
// tie-break by registration order) and, as a Rebalancer, re-derives that
// placement whenever the scaler offers fresh loads.
type LeastLoaded struct {
	// Replicas is the per-function replica count (1 when <= 1).
	Replicas int
}

// Place implements PlacementPolicy.
func (l LeastLoaded) Place(functions []string, nodes []string, loads Loads) *RoutingSnapshot {
	sets := make(map[string][]Replica, len(functions))
	if len(nodes) == 0 {
		return &RoutingSnapshot{sets: sets}
	}
	ranked := append([]string(nil), nodes...)
	sort.SliceStable(ranked, func(i, j int) bool { return loads[ranked[i]] < loads[ranked[j]] })
	k := l.Replicas
	if k < 1 {
		k = 1
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	// Every replica set is drawn from the k least-loaded nodes only; the
	// start rotates within that prefix so equal-load nodes share the
	// primaries instead of stacking every function on ranked[0].
	top := ranked[:k]
	for i, fn := range functions {
		sets[fn] = replicaSet(top, i%k, k, loads)
	}
	return &RoutingSnapshot{sets: sets}
}

// Rebalance implements Rebalancer: re-place under the fresh loads and
// return the new snapshot when it differs from the current one.
func (l LeastLoaded) Rebalance(cur *RoutingSnapshot, functions []string, nodes []string, loads Loads) *RoutingSnapshot {
	next := l.Place(functions, nodes, loads)
	if cur != nil && snapshotsEqual(cur, next) {
		return nil
	}
	return next
}

// snapshotsEqual compares two snapshots' node assignments (load hints are
// advisory and excluded from the comparison).
func snapshotsEqual(a, b *RoutingSnapshot) bool {
	if len(a.sets) != len(b.sets) {
		return false
	}
	for fn, ra := range a.sets {
		rb, ok := b.sets[fn]
		if !ok || len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i].Node != rb[i].Node {
				return false
			}
		}
	}
	return true
}
