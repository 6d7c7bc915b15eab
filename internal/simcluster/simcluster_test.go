package simcluster

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func run1(t *testing.T, kind Kind, prof *workloads.Profile) *Result {
	t.Helper()
	s := New(Config{Kind: kind, Profile: prof})
	res := s.RunOne()
	if res.Completed != 1 || res.Failed != 0 {
		t.Fatalf("%v: completed=%d failed=%d", kind, res.Completed, res.Failed)
	}
	return res
}

func TestSingleRequestCompletesAllSystemsAllBenchmarks(t *testing.T) {
	for _, prof := range workloads.All() {
		for _, kind := range []Kind{DataFlower, DataFlowerNonAware, FaaSFlow, SONIC, StateMachine} {
			prof := prof
			kind := kind
			t.Run(prof.Name+"/"+kind.String(), func(t *testing.T) {
				res := run1(t, kind, prof)
				lat := res.Latencies.Mean()
				if lat <= 0 || lat > 60 {
					t.Fatalf("latency = %vs", lat)
				}
				// The centralized state machine routes everything through
				// backend storage and never touches the host cache.
				if kind != StateMachine && res.SinkStats.Puts == 0 {
					t.Fatalf("sink stats not collected: %+v", res.SinkStats)
				}
				if kind == DataFlower && res.SinkStats.ProactiveReleases == 0 {
					t.Fatalf("DataFlower ran without proactive releases: %+v", res.SinkStats)
				}
			})
		}
	}
}

func TestDataFlowerFasterThanControlFlowSolo(t *testing.T) {
	for _, prof := range workloads.All() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			df := run1(t, DataFlower, prof).Latencies.Mean()
			ff := run1(t, FaaSFlow, prof).Latencies.Mean()
			sm := run1(t, StateMachine, prof).Latencies.Mean()
			if df >= ff {
				t.Fatalf("DataFlower %.3fs not faster than FaaSFlow %.3fs", df, ff)
			}
			if ff >= sm {
				t.Fatalf("FaaSFlow %.3fs not faster than StateMachine %.3fs", ff, sm)
			}
		})
	}
}

func TestWcCommShareUnderStateMachine(t *testing.T) {
	res := run1(t, StateMachine, workloads.WordCount(4, 0))
	comm, comp := 0.0, 0.0
	for _, st := range res.FnStats {
		comm += st.CommSec
		comp += st.CompSec
	}
	share := comm / (comm + comp)
	if share < 0.7 {
		t.Fatalf("wc comm share = %.2f, want > 0.7 (paper: 89.2%%)", share)
	}
}

func TestImgCommShareUnderStateMachine(t *testing.T) {
	res := run1(t, StateMachine, workloads.ImageProcessing(0))
	comm, comp := 0.0, 0.0
	for _, st := range res.FnStats {
		comm += st.CommSec
		comp += st.CompSec
	}
	share := comm / (comm + comp)
	if share > 0.5 {
		t.Fatalf("img comm share = %.2f, want < 0.5 (paper: 26%%)", share)
	}
}

func TestTriggerOverheadsMatchFig2c(t *testing.T) {
	prof := workloads.WordCount(4, 0)
	preds := map[string][]string{
		"count": {"start"},
		"merge": {"count"},
	}
	gapOf := func(kind Kind) (countGap, mergeGap time.Duration) {
		s := New(Config{Kind: kind, Profile: prof, Placement: cluster.SingleNode{}})
		gaps := obs.TriggerGaps(s.RunOne().Trace, preds)
		for _, g := range gaps {
			switch g.To {
			case "count":
				countGap = g.Gap
			case "merge":
				mergeGap = g.Gap
			}
		}
		return
	}
	_, smMerge := gapOf(StateMachine)
	if smMerge < 50*time.Millisecond {
		t.Fatalf("state machine merge gap = %v, want ~63ms", smMerge)
	}
	_, ffMerge := gapOf(FaaSFlow)
	if ffMerge < 5*time.Millisecond || ffMerge > 40*time.Millisecond {
		t.Fatalf("faasflow merge gap = %v, want ~15ms", ffMerge)
	}
	_, dfMerge := gapOf(DataFlower)
	if dfMerge >= ffMerge {
		t.Fatalf("DataFlower merge gap %v not smaller than FaaSFlow %v", dfMerge, ffMerge)
	}
}

func TestClosedLoopThroughputOrdering(t *testing.T) {
	// wc at 8 closed-loop clients: DataFlower must beat FaaSFlow and SONIC
	// (paper Fig. 11(d): up to 3.8x).
	tput := func(kind Kind) float64 {
		s := New(Config{Kind: kind, Profile: workloads.WordCount(4, 0), Seed: 7})
		res := s.RunClosedLoop(8, 2*time.Minute)
		return res.ThroughputRPM
	}
	df := tput(DataFlower)
	ff := tput(FaaSFlow)
	so := tput(SONIC)
	if df <= ff || df <= so {
		t.Fatalf("throughput df=%.1f ff=%.1f sonic=%.1f; DataFlower must win", df, ff, so)
	}
	if df < 1.5*ff {
		t.Logf("note: df/ff ratio only %.2fx (paper reports up to 3.8x at peak)", df/ff)
	}
}

func TestPressureAwareBeatsNonAwareAtHighLoad(t *testing.T) {
	tput := func(kind Kind) float64 {
		s := New(Config{Kind: kind, Profile: workloads.WordCount(4, 0), Seed: 7})
		res := s.RunClosedLoop(12, 2*time.Minute)
		return res.ThroughputRPM
	}
	aware := tput(DataFlower)
	non := tput(DataFlowerNonAware)
	if aware <= non {
		t.Fatalf("pressure-aware %.1f rpm not above non-aware %.1f rpm", aware, non)
	}
}

func TestMemoryUsagePerRequestLower(t *testing.T) {
	memPerReq := func(kind Kind) float64 {
		s := New(Config{Kind: kind, Profile: workloads.WordCount(4, 0), Seed: 7})
		res := s.RunOpenLoop(60, 30)
		if res.Completed == 0 {
			t.Fatalf("%v completed nothing", kind)
		}
		return res.MemGBsPerReq
	}
	df := memPerReq(DataFlower)
	ff := memPerReq(FaaSFlow)
	if df >= ff {
		t.Fatalf("DataFlower mem %.3f GB·s/req not below FaaSFlow %.3f", df, ff)
	}
}

func TestCacheUsagePerRequestLower(t *testing.T) {
	cache := func(kind Kind) float64 {
		s := New(Config{Kind: kind, Profile: workloads.WordCount(4, 0), Seed: 7})
		res := s.RunClosedLoop(4, time.Minute)
		if res.Completed == 0 {
			t.Fatalf("%v completed nothing", kind)
		}
		return res.CacheMBsPerReq
	}
	df := cache(DataFlower)
	ff := cache(FaaSFlow)
	if df >= ff {
		t.Fatalf("DataFlower cache %.3f MB·s/req not below FaaSFlow %.3f", df, ff)
	}
}

func TestOpenLoopLatencyOrderingUnderLoad(t *testing.T) {
	p99 := func(kind Kind) float64 {
		s := New(Config{Kind: kind, Profile: workloads.WordCount(4, 0), Seed: 11})
		res := s.RunOpenLoop(120, 60)
		return res.Latencies.P99()
	}
	df := p99(DataFlower)
	ff := p99(FaaSFlow)
	if df >= ff {
		t.Fatalf("DataFlower p99 %.3fs not below FaaSFlow %.3fs at 120 rpm", df, ff)
	}
}

func TestBurstHandling(t *testing.T) {
	sd := func(kind Kind) float64 {
		s := New(Config{Kind: kind, Profile: workloads.WordCount(4, 0), Seed: 3})
		res := s.RunBurst(10, 100, time.Minute, time.Minute)
		if res.Completed < 50 {
			t.Fatalf("%v completed only %d", kind, res.Completed)
		}
		return res.Latencies.StdDev()
	}
	df := sd(DataFlower)
	so := sd(SONIC)
	if df >= so {
		t.Fatalf("DataFlower latency σ %.3f not below SONIC %.3f under burst", df, so)
	}
}

func TestColocatedAllBenchmarks(t *testing.T) {
	all := workloads.All()
	s := New(Config{
		Kind:      DataFlower,
		Profile:   all[0],
		Colocated: all[1:],
		Seed:      5,
	})
	res := s.RunColocatedOpenLoop(map[string]float64{"wc": 30}, 10, 5)
	if res.Completed != 20 {
		t.Fatalf("completed = %d, want 20 (4 workflows x 5)", res.Completed)
	}
	if res.Failed != 0 {
		t.Fatalf("failed = %d", res.Failed)
	}
}

func TestScaleUpImprovesThroughput(t *testing.T) {
	tput := func(mem int) float64 {
		s := New(Config{Kind: DataFlower, Profile: workloads.WordCount(8, 4<<20), MemMB: mem, Seed: 9})
		res := s.RunClosedLoop(4, 2*time.Minute)
		return res.ThroughputRPM
	}
	small := tput(128)
	big := tput(512)
	if big <= small {
		t.Fatalf("scale-up did not help: 128MB=%.1f rpm vs 512MB=%.1f rpm", small, big)
	}
}

func TestFanoutScalingHelpsDataFlowerMore(t *testing.T) {
	lat := func(kind Kind, fanout int) float64 {
		s := New(Config{Kind: kind, Profile: workloads.WordCount(fanout, 4<<20), Seed: 13})
		return s.RunOne().Latencies.Mean()
	}
	// Relative advantage of DataFlower should grow (or at least persist)
	// with more branches.
	advLow := lat(FaaSFlow, 2) / lat(DataFlower, 2)
	advHigh := lat(FaaSFlow, 12) / lat(DataFlower, 12)
	if advHigh < advLow*0.8 {
		t.Fatalf("fan-out advantage shrank too much: 2x=%.2f 12x=%.2f", advLow, advHigh)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() float64 {
		s := New(Config{Kind: DataFlower, Profile: workloads.WordCount(4, 0), Seed: 21})
		return s.RunOpenLoop(60, 20).Latencies.Mean()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestTimeoutMarksFailed(t *testing.T) {
	s := New(Config{
		Kind:           SONIC,
		Profile:        workloads.VideoFFmpeg(4, 0),
		RequestTimeout: 1 * time.Second, // way below vid's latency
	})
	res := s.RunOne()
	if res.Failed != 1 || res.Completed != 0 {
		t.Fatalf("completed=%d failed=%d, want timeout", res.Completed, res.Failed)
	}
}

func TestKindString(t *testing.T) {
	if DataFlower.String() != "DataFlower" || Kind(99).String() == "" {
		t.Fatal("Kind names broken")
	}
}
