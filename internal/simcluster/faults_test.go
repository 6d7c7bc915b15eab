package simcluster

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workloads"
)

// TestKillNodeMidRunRecovers kills a worker in the middle of an open-loop
// run: the vast majority of requests (>= 95%) must still complete, with the
// recovery machinery reporting replays and per-request recovery latency.
func TestKillNodeMidRunRecovers(t *testing.T) {
	s := New(Config{
		Kind:      DataFlower,
		Profile:   workloads.WordCount(3, 1<<20),
		Placement: cluster.RoundRobin{Replicas: 2},
		Faults: []FaultEvent{
			{At: 2 * time.Second, Node: "w1", Kind: KillNode},
		},
	})
	const count = 60
	res := s.RunOpenLoop(600, count)
	if res.Completed+res.Failed != count {
		t.Fatalf("completed %d + failed %d != %d", res.Completed, res.Failed, count)
	}
	if res.Completed < count*95/100 {
		t.Fatalf("availability %d/%d under a node kill", res.Completed, count)
	}
	if res.Recovered == 0 {
		t.Fatal("no request was recovered across the kill")
	}
	if res.Replays == 0 {
		t.Fatal("the kill lost nothing? expected replayed shipments")
	}
	if int64(res.RecoveryLat.Count()) != res.Recovered {
		t.Fatalf("recovery latency samples %d != recovered %d", res.RecoveryLat.Count(), res.Recovered)
	}
	if res.RecoveryLat.Mean() <= 0 {
		t.Fatal("recovery latency not accounted")
	}
}

// TestKillRecoverFlappingSkewedOpenLoop is the satellite edge case: a node
// flaps down/up repeatedly during a Zipf-skewed open loop over the four
// co-located paper workflows. Nothing may hang, and availability holds.
func TestKillRecoverFlappingSkewedOpenLoop(t *testing.T) {
	all := workloads.All()
	var faults []FaultEvent
	for i := 0; i < 4; i++ {
		at := time.Duration(1+2*i) * time.Second
		node := "w1"
		if i%2 == 1 {
			node = "w2"
		}
		faults = append(faults,
			FaultEvent{At: at, Node: node, Kind: KillNode},
			FaultEvent{At: at + time.Second, Node: node, Kind: RecoverNode},
		)
	}
	s := New(Config{
		Kind:      DataFlower,
		Profile:   all[3], // wc is the hot workflow (Zipf rank 0)
		Colocated: all[:3],
		Placement: cluster.RoundRobin{Replicas: 2},
		Faults:    faults,
	})
	const count = 80
	res := s.RunSkewedOpenLoop(480, count, 2.0)
	if res.Completed+res.Failed != count {
		t.Fatalf("completed %d + failed %d != %d (run hung?)", res.Completed, res.Failed, count)
	}
	if res.Completed < count*90/100 {
		t.Fatalf("availability %d/%d under flapping kills", res.Completed, count)
	}
}

// TestDrainNodeFinishesInPlace drains a worker mid-run: no failures, no
// replays (draining loses nothing), and requests arriving after the drain
// never pin the draining node.
func TestDrainNodeFinishesInPlace(t *testing.T) {
	s := New(Config{
		Kind:      DataFlower,
		Profile:   workloads.WordCount(3, 1<<20),
		Placement: cluster.RoundRobin{Replicas: 2},
		Faults: []FaultEvent{
			{At: time.Second, Node: "w2", Kind: DrainNode},
		},
	})
	const count = 40
	res := s.RunOpenLoop(600, count)
	if res.Failed != 0 {
		t.Fatalf("%d requests failed under a drain", res.Failed)
	}
	if res.Completed != count {
		t.Fatalf("completed %d/%d", res.Completed, count)
	}
	if res.Replays != 0 {
		t.Fatalf("drain caused %d replays; it must finish in place", res.Replays)
	}
	var w2 *node
	for _, n := range s.nodes {
		if n.name == "w2" {
			w2 = n
		}
	}
	if !w2.draining {
		t.Fatal("w2 not draining after the event")
	}
	// Requests that arrived after the drain must not have pinned w2: every
	// pin map is dropped as requests complete, so check the run's stance
	// indirectly — a fresh post-drain request pins only routable nodes.
	req := s.newRequest(s.cfg.Profile)
	n := s.replicaFor(req, "start", nil)
	if n == w2 {
		t.Fatal("post-drain pin selected the draining node")
	}
}

// TestFaultFreeRunIsUntouched pins the gating: with no Faults configured
// the fault machinery must stay disabled (no inflight tracking, no landed
// logs) and results must carry zero recovery counters.
func TestFaultFreeRunIsUntouched(t *testing.T) {
	s := New(Config{Kind: DataFlower, Profile: workloads.WordCount(3, 1<<20)})
	if s.faulty {
		t.Fatal("faulty set without a fault schedule")
	}
	res := s.RunOpenLoop(600, 10)
	if res.Recovered != 0 || res.Replays != 0 || res.RecoveryLat.Count() != 0 {
		t.Fatalf("fault-free run reported recovery: %+v", res)
	}
}

// TestKillRecomputesNothing runs the -exp faults schedule (two replicas per
// function, w1 killed at 2 s and recovered at 6 s) for every benchmark:
// recovery replays lost data from the coordinator's log, so every function
// instance runs exactly once per completed request, kill or not.
func TestKillRecomputesNothing(t *testing.T) {
	for _, prof := range workloads.All() {
		s := New(Config{
			Kind:      DataFlower,
			Profile:   prof,
			Placement: cluster.RoundRobin{Replicas: 2},
			Faults: []FaultEvent{
				{At: 2 * time.Second, Node: "w1", Kind: KillNode},
				{At: 6 * time.Second, Node: "w1", Kind: RecoverNode},
			},
		})
		res := s.RunOpenLoop(360, 40)
		if res.Recovered == 0 {
			t.Fatalf("%s: the kill touched no request", prof.Name)
		}
		perReq := 0
		for _, f := range prof.Workflow.Functions {
			perReq += s.instancesOf(f.Name)
		}
		var runs int64
		for _, st := range res.FnStats {
			runs += st.Count
		}
		if want := res.Completed * int64(perReq); runs != want {
			t.Errorf("%s: %d instance runs for %d completed requests, want %d", prof.Name, runs, res.Completed, want)
		}
	}
}

// TestKillBackfillsWithoutGrowingTheSet kills every replica of one function
// while requests are in flight: the repaired pins land on a node outside the
// set, which serves them without joining it, and every request completes.
func TestKillBackfillsWithoutGrowingTheSet(t *testing.T) {
	s := New(Config{
		Kind:      DataFlower,
		Profile:   workloads.WordCount(3, 1<<20),
		Placement: cluster.RoundRobin{Replicas: 2},
	})
	const fn = "count"
	set := append([]*node(nil), s.replicas[fn]...)
	var events []FaultEvent
	for _, n := range set {
		events = append(events, FaultEvent{At: 2 * time.Second, Node: n.name, Kind: KillNode})
	}
	s = New(Config{
		Kind:      DataFlower,
		Profile:   workloads.WordCount(3, 1<<20),
		Placement: cluster.RoundRobin{Replicas: 2},
		Faults:    events,
	})
	const count = 40
	res := s.RunOpenLoop(600, count)
	if res.Completed != count {
		t.Fatalf("completed %d/%d with %s's whole set down", res.Completed, count, fn)
	}
	if got := len(s.replicas[fn]); got != len(set) {
		t.Fatalf("%s's replica set grew from %d to %d", fn, len(set), got)
	}
	var backfill *node
	for _, n := range s.nodes {
		if n.fns[fn] != nil && !n.down {
			backfill = n
		}
	}
	if backfill == nil {
		t.Fatalf("no live node hosts %s after its set died", fn)
	}
	for _, n := range set {
		if n == backfill {
			t.Fatalf("backfill %s is a member of the dead set", n.name)
		}
	}
	req := s.newRequest(s.cfg.Profile)
	if n := s.replicaFor(req, fn, nil); n != backfill {
		t.Fatalf("a new pin for %s lands on %s, want the backfill %s", fn, n.name, backfill.name)
	}
}
