package cluster

import "fmt"

// This file is the cluster's fault-tolerance surface: a per-node health
// state machine (Up / Draining / Down) and the cluster-level transitions
// that drive it. Health feeds the routing plane two ways: the engines check
// it before pinning a request to a replica (and on every touch of an
// existing pin), and Place excludes unhealthy replicas from the snapshot it
// returns.

// NodeHealth is a node's position in the health state machine.
type NodeHealth int32

// Health states. Up serves everything; Draining finishes in-flight work but
// accepts no new request pins; Down is dead — its containers and Wait-Match
// Memory contents are gone, and in-flight requests pinned to it must be
// repaired and replayed by the engine.
const (
	Up NodeHealth = iota
	Draining
	Down
)

// String names the health state.
func (h NodeHealth) String() string {
	switch h {
	case Up:
		return "up"
	case Draining:
		return "draining"
	default:
		return "down"
	}
}

// Health returns the node's current health state.
func (n *Node) Health() NodeHealth { return NodeHealth(n.health.Load()) }

// setHealth records a health transition (counted only when the state
// actually changes — FailNode/RecoverNode re-entries are no-ops).
func (n *Node) setHealth(h NodeHealth) {
	if old := n.health.Swap(int32(h)); NodeHealth(old) != h {
		observeHealth(h)
	}
}

// Routable reports whether new request pins may select this node (Up only:
// a draining node finishes what it has; a down node has nothing).
func (n *Node) Routable() bool { return n.Health() == Up }

// FailNode marks the node Down and wipes its Wait-Match Memory — the data
// loss of a real node death. Placements made after the failure exclude it.
// Requests already pinned to the node are the engine's problem: it detects
// the dead pin at the next ship/land/consume and repairs + replays (see
// core's fault-tolerance plane).
//
//repolint:testseam the failover and chaos tests kill nodes in process; cmd/node loses them for real
func (c *Cluster) FailNode(name string) error {
	n, ok := c.Node(name)
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	n.setHealth(Down)
	n.SinkClear() //nolint:errcheck // the node is being declared dead; an unreachable sink is already "cleared"
	return nil
}

// MarkUnreachable marks the node Down without touching its sink — the
// transition for a node detected dead over the wire (missed heartbeats,
// connection resets). There is nothing to wipe: the process is gone, or
// unreachable enough that a Clear RPC would only hang. Routing reacts
// exactly as for FailNode; the engine repairs and replays pinned requests.
func (c *Cluster) MarkUnreachable(name string) error {
	n, ok := c.Node(name)
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	n.setHealth(Down)
	return nil
}

// DrainNode marks the node Draining: it takes no new pins, but the node
// stays alive so in-flight requests
// pinned to it complete normally and its sink keeps its data.
func (c *Cluster) DrainNode(name string) error {
	n, ok := c.Node(name)
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	n.setHealth(Draining)
	return nil
}

// RecoverNode returns a failed or draining node to Up. A node recovering from Down comes back empty: its sink is cleared again
// here, because a shipment that raced FailNode's wipe (health checked just
// before the transition) may have landed afterwards — the request repaired
// away from this node, so its teardown sweep no longer covers it, and the
// stray would otherwise outlive both the request and the outage. Draining
// nodes keep their data (they never lost any).
func (c *Cluster) RecoverNode(name string) error {
	n, ok := c.Node(name)
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	if n.Health() == Down {
		n.SinkClear() //nolint:errcheck // best effort: a still-unreachable sink fails the next ship, not the recovery
	}
	n.setHealth(Up)
	return nil
}

// healthFilter derives the routable view of a placed snapshot: every
// replica hosted on a non-Up node is excluded. A function whose whole
// replica set is unhealthy keeps it unfiltered — dropping the function
// entirely would make it silently unroutable, while keeping the set lets
// health-aware callers pick the least-bad option (and the engine's own
// fallback find a live node). Replica slices are reused when unchanged
// (snapshots are read-only, so sharing is safe).
func (c *Cluster) healthFilter(desired *RoutingSnapshot) *RoutingSnapshot {
	if desired == nil {
		return nil
	}
	sets := make(map[string][]Replica, len(desired.sets))
	for fn, reps := range desired.sets {
		healthy := reps
		for i, r := range reps {
			// Unknown nodes pass through: placement validation elsewhere
			// owns that error, and health must not mask it.
			n, ok := c.Node(r.Node)
			if !ok || n.Routable() {
				continue
			}
			// First unhealthy replica: switch to a filtered copy.
			filtered := make([]Replica, 0, len(reps)-1)
			filtered = append(filtered, reps[:i]...)
			for _, r2 := range reps[i+1:] {
				if n2, ok2 := c.Node(r2.Node); !ok2 || n2.Routable() {
					filtered = append(filtered, r2)
				}
			}
			healthy = filtered
			break
		}
		if len(healthy) == 0 {
			healthy = reps
		}
		sets[fn] = healthy
	}
	return &RoutingSnapshot{sets: sets}
}
