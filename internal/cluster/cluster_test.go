package cluster

import (
	"math"
	"testing"
	"time"
)

func TestSpecScaling(t *testing.T) {
	base := Spec{MemoryMB: 128}
	if got := base.BandwidthBps(); math.Abs(got-5e6) > 1e-6 {
		t.Fatalf("bw = %v, want 5e6 B/s (40 Mbps)", got)
	}
	double := Spec{MemoryMB: 256}
	if got := double.BandwidthBps(); math.Abs(got-10e6) > 1e-6 {
		t.Fatalf("bw = %v, want 10e6 B/s", got)
	}
}

func TestStartAcquireRelease(t *testing.T) {
	n := NewNode("w1", Options{})
	if _, ok := n.AcquireIdle("f"); ok {
		t.Fatal("acquired from empty pool")
	}
	c := n.StartContainer("f", Spec{MemoryMB: 128})
	if c.State() != Busy {
		t.Fatalf("state = %v", c.State())
	}
	if c.Invocations() != 1 {
		t.Fatalf("invocations = %d", c.Invocations())
	}
	n.Release(c)
	if c.State() != Idle {
		t.Fatalf("state after release = %v", c.State())
	}
	got, ok := n.AcquireIdle("f")
	if !ok || got != c {
		t.Fatal("warm container not reused")
	}
	if got.Invocations() != 2 {
		t.Fatalf("invocations = %d", got.Invocations())
	}
}

func TestColdStartDelay(t *testing.T) {
	n := NewNode("w1", Options{ColdStart: 50 * time.Millisecond})
	start := time.Now()
	n.StartContainer("f", Spec{MemoryMB: 128})
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("cold start delay not applied")
	}
	if n.Containers("f") != 1 {
		t.Fatalf("containers = %d", n.Containers("f"))
	}
}

func TestContainersCount(t *testing.T) {
	n := NewNode("w1", Options{})
	n.StartContainer("f", Spec{MemoryMB: 128})
	n.StartContainer("f", Spec{MemoryMB: 128})
	n.StartContainer("g", Spec{MemoryMB: 128})
	if n.Containers("f") != 2 || n.Containers("g") != 1 || n.Containers("") != 3 {
		t.Fatalf("counts: f=%d g=%d all=%d", n.Containers("f"), n.Containers("g"), n.Containers(""))
	}
}

// primaries maps each placed function to its primary replica's node.
func primaries(snap *RoutingSnapshot) map[string]string {
	rt := map[string]string{}
	for fn, reps := range snap.sets {
		rt[fn] = reps[0].Node
	}
	return rt
}

func TestRoundRobinPlacement(t *testing.T) {
	rt := primaries(RoundRobin{}.Place([]string{"a", "b", "c", "d"}, []string{"n1", "n2", "n3"}))
	if rt["a"] != "n1" || rt["b"] != "n2" || rt["c"] != "n3" || rt["d"] != "n1" {
		t.Fatalf("rt = %v", rt)
	}
}

func TestRoundRobinNoNodes(t *testing.T) {
	snap := RoundRobin{}.Place([]string{"a"}, nil)
	if rt := primaries(snap); len(rt) != 0 {
		t.Fatalf("rt = %v", rt)
	}
	if reps := snap.Replicas("a"); len(reps) != 0 {
		t.Fatalf("replicas = %v with no nodes", reps)
	}
}

func TestSingleNodePlacement(t *testing.T) {
	rt := primaries(SingleNode{Node: "n2"}.Place([]string{"a", "b"}, []string{"n1", "n2"}))
	if rt["a"] != "n2" || rt["b"] != "n2" {
		t.Fatalf("rt = %v", rt)
	}
	rt = primaries(SingleNode{}.Place([]string{"a"}, []string{"n1", "n2"}))
	if rt["a"] != "n1" {
		t.Fatalf("default single-node rt = %v", rt)
	}
}

func TestClusterPlaceAndLookup(t *testing.T) {
	c := NewCluster(nil)
	if err := c.AddNode(NewNode("n1", Options{})); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(NewNode("n2", Options{})); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(NewNode("n1", Options{})); err == nil {
		t.Fatal("duplicate node accepted")
	}
	snap := c.Place([]string{"f", "g"})
	if rt := primaries(snap); rt["f"] != "n1" || rt["g"] != "n2" {
		t.Fatalf("rt = %v", rt)
	}
	if _, ok := c.Node("n1"); !ok {
		t.Fatal("node lookup failed")
	}
	if _, ok := c.Node("nope"); ok {
		t.Fatal("phantom node")
	}
	if got := c.Nodes(); len(got) != 2 || got[0] != "n1" {
		t.Fatalf("nodes = %v", got)
	}
}
