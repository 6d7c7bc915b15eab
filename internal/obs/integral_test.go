package obs

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestIntegralConstantLevel(t *testing.T) {
	var g Integral
	g.Set(0, 2)
	got := g.Finish(10 * time.Second)
	if !almost(got, 20, 1e-9) {
		t.Fatalf("integral = %v, want 20", got)
	}
}

func TestIntegralSteps(t *testing.T) {
	var g Integral
	g.Set(0, 1)
	g.Set(2*time.Second, 3)          // 1*2 = 2
	g.AddDelta(4*time.Second, -2)    // 3*2 = 6
	got := g.Finish(6 * time.Second) // 1*2 = 2
	if !almost(got, 10, 1e-9) {
		t.Fatalf("integral = %v, want 10", got)
	}
	if got := g.Finish(8 * time.Second); !almost(got, 12, 1e-9) { // level 1 holds
		t.Fatalf("extended integral = %v, want 12", got)
	}
}

func TestIntegralClampsBackwardsTime(t *testing.T) {
	var g Integral
	g.Set(5*time.Second, 1)
	g.Set(3*time.Second, 2) // clamped to t=5
	got := g.Finish(6 * time.Second)
	if !almost(got, 2, 1e-9) {
		t.Fatalf("integral = %v, want 2", got)
	}
}

func TestIntegralFirstEventSetsOrigin(t *testing.T) {
	var g Integral
	g.Set(10*time.Second, 5)
	got := g.Finish(12 * time.Second)
	if !almost(got, 10, 1e-9) {
		t.Fatalf("integral = %v, want 10 (no accumulation before first event)", got)
	}
}

// Property: integral of a non-negative level is non-negative and additive in
// time extension.
func TestIntegralNonNegativeProperty(t *testing.T) {
	f := func(levels []uint16, gaps []uint16) bool {
		var g Integral
		at := time.Duration(0)
		n := len(levels)
		if len(gaps) < n {
			n = len(gaps)
		}
		for i := 0; i < n; i++ {
			at += time.Duration(gaps[i]) * time.Millisecond
			g.Set(at, float64(levels[i]))
			if g.Finish(at) < -1e-9 {
				return false
			}
		}
		before := g.Finish(at + time.Second)
		after := g.Finish(at + 2*time.Second)
		return after >= before-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
