package simcluster

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Count() != 0 || s.Mean() != 0 || s.P99() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	if s.Percentile(0) != 0 || s.Percentile(100) != 0 {
		t.Fatal("empty sample min/max should be 0")
	}
}

func TestSampleMeanMinMax(t *testing.T) {
	var s Sample
	for _, v := range []float64{4, 1, 3, 2} {
		s.Add(v)
	}
	if !almost(s.Mean(), 2.5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 4 {
		t.Fatalf("min/max = %v/%v", s.Percentile(0), s.Percentile(100))
	}
}

func TestSamplePercentileInterpolation(t *testing.T) {
	var s Sample
	for _, v := range []float64{10, 20, 30, 40} {
		s.Add(v)
	}
	if got := s.Percentile(50); !almost(got, 25, 1e-12) {
		t.Fatalf("p50 = %v, want 25", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Fatalf("p0 = %v, want 10", got)
	}
	if got := s.Percentile(100); got != 40 {
		t.Fatalf("p100 = %v, want 40", got)
	}
	if got := s.Percentile(-5); got != 10 {
		t.Fatalf("p-5 = %v, want 10", got)
	}
	if got := s.Percentile(120); got != 40 {
		t.Fatalf("p120 = %v, want 40", got)
	}
}

func TestSampleSingleValue(t *testing.T) {
	var s Sample
	s.Add(7)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := s.Percentile(p); got != 7 {
			t.Fatalf("p%v = %v, want 7", p, got)
		}
	}
}

func TestSampleStdDev(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.StdDev(); !almost(got, 2, 1e-12) {
		t.Fatalf("sd = %v, want 2", got)
	}
}

func TestSampleAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Millisecond)
	if got := s.Mean(); !almost(got, 1.5, 1e-12) {
		t.Fatalf("mean = %v, want 1.5", got)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestSamplePercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Add(v)
			lo, hi = min(lo, v), max(hi, v)
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := s.Percentile(p1), s.Percentile(p2)
		return v1 <= v2 && v1 >= lo && v2 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineSampleAt(t *testing.T) {
	var tl Timeline
	tl.Set(time.Second, 1)
	tl.Set(3*time.Second, 5)
	if got := tl.SampleAt(0); got != 0 {
		t.Fatalf("SampleAt(0) = %v", got)
	}
	if got := tl.SampleAt(2 * time.Second); got != 1 {
		t.Fatalf("SampleAt(2s) = %v", got)
	}
	if got := tl.SampleAt(3 * time.Second); got != 5 {
		t.Fatalf("SampleAt(3s) = %v", got)
	}
}

func TestTimelineAddDelta(t *testing.T) {
	var tl Timeline
	tl.AddDelta(0, 2)
	tl.AddDelta(time.Second, 3)
	if got := tl.SampleAt(2 * time.Second); got != 5 {
		t.Fatalf("level = %v, want 5", got)
	}
}
