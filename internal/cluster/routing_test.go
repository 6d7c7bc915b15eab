package cluster

import (
	"fmt"
	"sync"
	"testing"
)

func TestRoundRobinReplicaSets(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	snap := RoundRobin{Replicas: 2}.Place([]string{"a", "b", "c", "d"}, nodes)
	want := map[string][]string{
		"a": {"n1", "n2"},
		"b": {"n2", "n3"},
		"c": {"n3", "n1"}, // wraps modulo the node count
		"d": {"n1", "n2"}, // 4th function wraps back to n1
	}
	for fn, wantReps := range want {
		reps := snap.Replicas(fn)
		if len(reps) != len(wantReps) {
			t.Fatalf("%s replicas = %v, want %v", fn, reps, wantReps)
		}
		for i, r := range reps {
			if r.Node != wantReps[i] {
				t.Fatalf("%s replicas = %v, want %v", fn, reps, wantReps)
			}
		}
	}
	// Primary view matches the classic single-replica round-robin.
	if p := snap.Replicas("c")[0].Node; p != "n3" {
		t.Fatalf("primary(c) = %q", p)
	}
}

func TestRoundRobinReplicasClampedToNodeCount(t *testing.T) {
	snap := RoundRobin{Replicas: 10}.Place([]string{"a"}, []string{"n1", "n2"})
	if reps := snap.Replicas("a"); len(reps) != 2 {
		t.Fatalf("replicas = %v, want clamped to 2 nodes", reps)
	}
}

func TestSingleReplicaMatchesLegacyRoundRobin(t *testing.T) {
	// The zero-value RoundRobin must reproduce the pre-elastic placement
	// exactly: every function exactly one replica, tables identical.
	fns := []string{"a", "b", "c", "d", "e"}
	nodes := []string{"n1", "n2", "n3"}
	snap := RoundRobin{}.Place(fns, nodes)
	for i, fn := range fns {
		reps := snap.Replicas(fn)
		if len(reps) != 1 || reps[0].Node != nodes[i%len(nodes)] {
			t.Fatalf("%s replicas = %v, want exactly [%s]", fn, reps, nodes[i%len(nodes)])
		}
	}
}

// reentrantPolicy calls back into the cluster from inside Place — the
// deadlock regression guard for Place holding the cluster lock across the
// user-supplied policy callback.
type reentrantPolicy struct{ c *Cluster }

func (p reentrantPolicy) Place(functions, nodes []string) *RoutingSnapshot {
	// Any of these would deadlock if Place held c.mu across the callback.
	_ = p.c.Nodes()
	_, _ = p.c.Node("n1")
	return RoundRobin{}.Place(functions, nodes)
}

func TestPlaceDoesNotHoldClusterLockAcrossPolicy(t *testing.T) {
	c := NewCluster(nil)
	pol := reentrantPolicy{c: c}
	// NewCluster defaults the policy; install the reentrant one directly.
	c.policy = pol
	_ = c.AddNode(NewNode("n1", Options{}))
	done := make(chan *RoutingSnapshot, 1)
	go func() { done <- c.Place([]string{"f"}) }()
	snap := <-done
	if reps := snap.Replicas("f"); len(reps) != 1 || reps[0].Node != "n1" {
		t.Fatalf("placement = %v", reps)
	}
}

func TestClusterReadersDoNotContend(t *testing.T) {
	// Read-mostly accessors racing AddNode and Place: exercised under
	// -race in CI. Also checks Nodes stays consistent (prefix of the
	// registration order).
	c := NewCluster(nil)
	_ = c.AddNode(NewNode("n0", Options{}))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				names := c.Nodes()
				if len(names) == 0 || names[0] != "n0" {
					t.Errorf("Nodes() = %v", names)
					return
				}
				if _, ok := c.Node("n0"); !ok {
					t.Error("n0 vanished")
					return
				}
			}
		}()
	}
	for i := 1; i <= 16; i++ {
		if err := c.AddNode(NewNode(fmt.Sprintf("n%d", i), Options{})); err != nil {
			t.Fatal(err)
		}
		_ = c.Place([]string{"f", "g"})
	}
	close(stop)
	wg.Wait()
}

// TestPickReplica pins the replica decision both planes share. Nodes are
// names; down lists the unroutable ones and load their readings.
func TestPickReplica(t *testing.T) {
	cases := []struct {
		name   string
		reps   []string
		prefer string
		down   []string
		load   map[string]int64
		want   int
		wantOK bool
	}{
		{name: "preferred member routable wins over lower load",
			reps: []string{"a", "b", "c"}, prefer: "c", load: map[string]int64{"a": 0, "b": 1, "c": 9}, want: 2, wantOK: true},
		{name: "preferred member unroutable falls to least loaded",
			reps: []string{"a", "b", "c"}, prefer: "c", down: []string{"c"}, load: map[string]int64{"a": 5, "b": 1}, want: 1, wantOK: true},
		{name: "preferred not a member falls to least loaded",
			reps: []string{"a", "b"}, prefer: "z", load: map[string]int64{"a": 3, "b": 2}, want: 1, wantOK: true},
		{name: "load tie goes to the first",
			reps: []string{"a", "b", "c"}, load: map[string]int64{"a": 4, "b": 2, "c": 2}, want: 1, wantOK: true},
		{name: "least loaded skips the unroutable",
			reps: []string{"a", "b", "c"}, down: []string{"a"}, load: map[string]int64{"a": 0, "b": 7, "c": 3}, want: 2, wantOK: true},
		{name: "single replica",
			reps: []string{"a"}, load: map[string]int64{"a": 100}, want: 0, wantOK: true},
		{name: "single replica unroutable",
			reps: []string{"a"}, down: []string{"a"}},
		{name: "nothing routable",
			reps: []string{"a", "b"}, prefer: "a", down: []string{"a", "b"}},
		{name: "empty set"},
	}
	for _, tc := range cases {
		down := map[string]bool{}
		for _, n := range tc.down {
			down[n] = true
		}
		routable := func(n string) bool { return !down[n] }
		load := func(n string) int64 { return tc.load[n] }
		got, ok := PickReplica(tc.reps, tc.prefer, routable, load)
		if ok != tc.wantOK || (ok && got != tc.want) {
			t.Errorf("%s: PickReplica = %d, %v; want %d, %v", tc.name, got, ok, tc.want, tc.wantOK)
		}
	}
}
