package simcluster

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workloads"
)

// TestDefaultPlacementMatchesExplicitSingleReplica pins the bit-for-bit
// guarantee: a nil Placement and an explicit single-replica RoundRobin must
// drive identical simulations (same seed, same event schedule, same
// results).
func TestDefaultPlacementMatchesExplicitSingleReplica(t *testing.T) {
	run := func(pol cluster.PlacementPolicy) *Result {
		s := New(Config{
			Kind:      DataFlower,
			Profile:   workloads.WordCount(4, 0),
			Placement: pol,
			Seed:      7,
		})
		return s.RunOpenLoop(60, 20)
	}
	a := run(nil)
	b := run(cluster.RoundRobin{})
	if a.Completed != b.Completed || a.Failed != b.Failed {
		t.Fatalf("completed/failed diverged: %d/%d vs %d/%d", a.Completed, a.Failed, b.Completed, b.Failed)
	}
	if a.Latencies.Mean() != b.Latencies.Mean() || a.Latencies.P99() != b.Latencies.P99() {
		t.Fatalf("latencies diverged: %v/%v vs %v/%v",
			a.Latencies.Mean(), a.Latencies.P99(), b.Latencies.Mean(), b.Latencies.P99())
	}
	if a.Containers != b.Containers || a.MemGBs != b.MemGBs {
		t.Fatalf("containers/mem diverged: %d/%v vs %d/%v", a.Containers, a.MemGBs, b.Containers, b.MemGBs)
	}
}

func TestReplicatedPlacementCompletes(t *testing.T) {
	s := New(Config{
		Kind:      DataFlower,
		Profile:   workloads.WordCount(4, 0),
		Placement: cluster.RoundRobin{Replicas: 2},
		Seed:      7,
	})
	res := s.RunOpenLoop(120, 30)
	if res.Failed != 0 {
		t.Fatalf("failed = %d", res.Failed)
	}
	if res.Completed != 30 {
		t.Fatalf("completed = %d, want 30", res.Completed)
	}
}

func TestSingleNodePlacementViaPolicy(t *testing.T) {
	// cluster.SingleNode{} keeps every function on worker 0.
	s := New(Config{
		Kind:      DataFlower,
		Profile:   workloads.WordCount(4, 0),
		Placement: cluster.SingleNode{},
		Seed:      7,
	})
	for fn, n := range s.routing {
		if n != s.nodes[0] {
			t.Fatalf("%s routed to %s under SingleNode", fn, n.name)
		}
		if len(s.replicas[fn]) != 1 {
			t.Fatalf("%s has %d replicas under SingleNode", fn, len(s.replicas[fn]))
		}
	}
	if res := s.RunOne(); res.Failed != 0 || res.Completed != 1 {
		t.Fatalf("single-node run: completed=%d failed=%d", res.Completed, res.Failed)
	}
}

func TestSkewedOpenLoopZipfOverWorkflows(t *testing.T) {
	all := workloads.All()
	s := New(Config{
		Kind:      DataFlower,
		Profile:   all[3], // wc: the cheapest workflow becomes the hot one
		Colocated: all[:3],
		Seed:      7,
	})
	res := s.RunSkewedOpenLoop(120, 40, 2.0)
	if res.Completed+res.Failed != 40 {
		t.Fatalf("completed+failed = %d, want 40", res.Completed+res.Failed)
	}
	// Zipf rank 0 is the primary profile: it must dominate the mix.
	hot := s.LatencyOf("wc").Count()
	for _, prof := range all[:3] {
		if c := s.LatencyOf(prof.Name).Count(); c > hot {
			t.Fatalf("cold workflow %s got %d requests vs hot wc %d", prof.Name, c, hot)
		}
	}
	if hot < 20 {
		t.Fatalf("hot workflow got only %d of 40 requests; Zipf skew missing", hot)
	}
}

func TestSkewedOpenLoopSingleWorkflow(t *testing.T) {
	s := New(Config{Kind: DataFlower, Profile: workloads.WordCount(4, 0), Seed: 7})
	res := s.RunSkewedOpenLoop(120, 10, 0) // skew <= 1 defaults; one workflow
	if res.Completed != 10 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d", res.Completed, res.Failed)
	}
}

func TestReplicatedBurstKeepsLatencyBounded(t *testing.T) {
	// Smoke that the replica path survives bursty load with timeouts armed.
	s := New(Config{
		Kind:           DataFlower,
		Profile:        workloads.WordCount(4, 0),
		Placement:      cluster.RoundRobin{Replicas: 3},
		Seed:           7,
		RequestTimeout: 60 * time.Second,
	})
	res := s.RunBurst(10, 100, 10*time.Second, 10*time.Second)
	if res.Failed != 0 {
		t.Fatalf("failed = %d under replicated burst", res.Failed)
	}
}
