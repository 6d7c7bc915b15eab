package cluster

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/wmm"
)

func newHealthCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c := NewCluster(RoundRobin{Replicas: 2})
	for _, name := range []string{"w1", "w2", "w3"}[:nodes] {
		if err := c.AddNode(NewNode(name, Options{})); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestHealthStateMachine(t *testing.T) {
	c := newHealthCluster(t, 2)
	n, _ := c.Node("w1")
	if got := n.Health(); got != Up {
		t.Fatalf("initial health = %v, want up", got)
	}
	if !n.Routable() {
		t.Fatal("fresh node not routable")
	}
	if err := c.DrainNode("w1"); err != nil {
		t.Fatal(err)
	}
	if got := n.Health(); got != Draining || n.Routable() {
		t.Fatalf("after drain: health=%v routable=%v", got, n.Routable())
	}
	if err := c.FailNode("w1"); err != nil {
		t.Fatal(err)
	}
	if got := n.Health(); got != Down {
		t.Fatalf("after fail: health=%v", got)
	}
	if err := c.RecoverNode("w1"); err != nil {
		t.Fatal(err)
	}
	if got := n.Health(); got != Up || !n.Routable() {
		t.Fatalf("after recover: health=%v routable=%v", got, n.Routable())
	}
	if err := c.FailNode("nope"); err == nil {
		t.Fatal("FailNode on unknown node did not error")
	}
	if n2, _ := c.Node("w2"); n2.Health() != Up {
		t.Fatalf("w2 health = %v after w1's failure", n2.Health())
	}
}

func TestFailNodeWipesSink(t *testing.T) {
	c := newHealthCluster(t, 2)
	n, _ := c.Node("w1")
	key := wmm.Key{ReqID: "r1", Fn: "f", Data: "x"}
	n.Sink.Put(n.Elapsed(), key, dataflow.Value{Size: 64}, 1)
	if n.Sink.MemBytes() != 64 {
		t.Fatalf("setup: MemBytes = %d", n.Sink.MemBytes())
	}
	if err := c.FailNode("w1"); err != nil {
		t.Fatal(err)
	}
	if n.Sink.MemBytes() != 0 {
		t.Fatalf("sink survived FailNode: %d bytes", n.Sink.MemBytes())
	}
	if _, _, ok := n.Sink.Get(n.Elapsed(), key); ok {
		t.Fatal("entry survived FailNode")
	}
}

// Place must exclude replicas on non-Up nodes, keep an all-unhealthy set
// whole, and place the full set again once its nodes recover.
func TestPlaceIsHealthAware(t *testing.T) {
	c := newHealthCluster(t, 3)
	snap := c.Place([]string{"f"})
	if got := len(snap.Replicas("f")); got != 2 {
		t.Fatalf("initial replicas = %d, want 2", got)
	}
	full := append([]Replica(nil), snap.Replicas("f")...)
	dead := full[1].Node

	if err := c.FailNode(dead); err != nil {
		t.Fatal(err)
	}
	reps := c.Place([]string{"f"}).Replicas("f")
	if len(reps) != 1 || reps[0].Node == dead {
		t.Fatalf("dead replica not excluded: %v", reps)
	}

	// Draining is excluded from new placements too.
	if err := c.DrainNode(full[0].Node); err != nil {
		t.Fatal(err)
	}
	// Both replicas unhealthy: the set is kept unfiltered rather than
	// leaving the function unroutable.
	if got := len(c.Place([]string{"f"}).Replicas("f")); got != 2 {
		t.Fatalf("all-unhealthy set filtered to %d replicas, want full 2", got)
	}

	if err := c.RecoverNode(dead); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverNode(full[0].Node); err != nil {
		t.Fatal(err)
	}
	reps = c.Place([]string{"f"}).Replicas("f")
	if len(reps) != 2 {
		t.Fatalf("recovery did not restore the placed set: %v", reps)
	}
	for i := range reps {
		if reps[i].Node != full[i].Node {
			t.Fatalf("restored set %v != placed %v", reps, full)
		}
	}
}
