package simcluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/workloads"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestTimelineBusySec(t *testing.T) {
	tl := new(Timeline)
	tl.Set(sec(1), 1)
	tl.Set(sec(3), 0)
	tl.Set(sec(5), 2)
	// Busy over [1,3) and [5,8) with horizon 8 -> 5 s.
	if got := timelineBusySec(tl, sec(8)); math.Abs(got-5) > 1e-9 {
		t.Fatalf("busy = %v, want 5", got)
	}
	// Horizon inside a busy interval.
	if got := timelineBusySec(tl, sec(2)); math.Abs(got-1) > 1e-9 {
		t.Fatalf("busy = %v, want 1", got)
	}
	// Empty timeline.
	if got := timelineBusySec(new(Timeline), sec(10)); got != 0 {
		t.Fatalf("busy = %v, want 0", got)
	}
}

func TestTimelineOverlapSec(t *testing.T) {
	a := new(Timeline)
	b := new(Timeline)
	a.Set(sec(0), 1)
	a.Set(sec(4), 0)
	b.Set(sec(2), 1)
	b.Set(sec(6), 0)
	// Overlap over [2,4) -> 2 s.
	if got := timelineOverlapSec(a, b, sec(10)); math.Abs(got-2) > 1e-9 {
		t.Fatalf("overlap = %v, want 2", got)
	}
	// Horizon truncates the overlap.
	if got := timelineOverlapSec(a, b, sec(3)); math.Abs(got-1) > 1e-9 {
		t.Fatalf("overlap = %v, want 1", got)
	}
}

func TestTimelineOverlapDisjoint(t *testing.T) {
	a := new(Timeline)
	b := new(Timeline)
	a.Set(sec(0), 1)
	a.Set(sec(1), 0)
	b.Set(sec(2), 1)
	b.Set(sec(3), 0)
	if got := timelineOverlapSec(a, b, sec(5)); got != 0 {
		t.Fatalf("overlap = %v, want 0", got)
	}
}

func TestTimelineOverlapOpenEnded(t *testing.T) {
	a := new(Timeline)
	b := new(Timeline)
	a.Set(sec(1), 1) // never drops
	b.Set(sec(2), 1)
	if got := timelineOverlapSec(a, b, sec(5)); math.Abs(got-3) > 1e-9 {
		t.Fatalf("overlap = %v, want 3", got)
	}
}

func TestControlFlowContainersNeverOverlap(t *testing.T) {
	// Control-flow containers serialize Get/compute/Put: their own CPU and
	// network timelines must never overlap (§3.2.2).
	s := New(Config{Kind: FaaSFlow, Profile: wcProfile(), Seed: 3})
	res := s.RunClosedLoop(2, 20*time.Second)
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.OverlapSec > 1e-9 {
		t.Fatalf("control-flow overlap = %v s, want 0", res.OverlapSec)
	}
	if res.CPUBusySec <= 0 {
		t.Fatal("no compute recorded")
	}
}

func TestDataFlowerContainersOverlap(t *testing.T) {
	s := New(Config{Kind: DataFlower, Profile: wcProfile(), Seed: 3})
	res := s.RunClosedLoop(2, 20*time.Second)
	if res.OverlapSec <= 0 {
		t.Fatalf("DataFlower overlap = %v s, want > 0", res.OverlapSec)
	}
}

// wcProfile returns the default wordcount profile for overlap tests.
func wcProfile() *workloads.Profile { return workloads.WordCount(4, 0) }
