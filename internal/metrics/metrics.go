// Package metrics provides the measurement primitives used by the
// experiments: latency samples with percentiles, cumulative distributions,
// time-weighted integrals for resource usage (GB·s / MB·s), and
// per-resource usage timelines.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates scalar observations (typically latencies in seconds)
// and answers order statistics. Not safe for concurrent use; the experiment
// runners funnel observations through a single goroutine.
type Sample struct {
	vals   []float64
	sorted bool
}

// NewSample returns an empty sample.
func NewSample() *Sample { return &Sample{} }

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// AddDuration records a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.vals) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// StdDev returns the population standard deviation, or 0 when fewer than two
// observations exist.
func (s *Sample) StdDev() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s.vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. Returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// P50 and P99 are common percentile shorthands.
func (s *Sample) P50() float64 { return s.Percentile(50) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Percentile(99) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.4f p50=%.4f p99=%.4f sd=%.4f",
		s.Count(), s.Mean(), s.P50(), s.P99(), s.StdDev())
}

// Integral accumulates a time-weighted integral of a piecewise-constant
// level, e.g. bytes of memory held over time. The result unit is
// level-unit · seconds (the paper reports GB·s and MB·s).
type Integral struct {
	level   float64
	lastAt  time.Duration
	total   float64
	started bool
}

// NewIntegral returns an integral starting at level 0 at time 0.
func NewIntegral() *Integral { return &Integral{} }

// Set changes the level at virtual time at. Calls must have non-decreasing
// at; earlier timestamps are clamped to the previous timestamp.
func (g *Integral) Set(at time.Duration, level float64) {
	g.advance(at)
	g.level = level
}

// AddDelta changes the level by delta at virtual time at.
func (g *Integral) AddDelta(at time.Duration, delta float64) {
	g.advance(at)
	g.level += delta
}

func (g *Integral) advance(at time.Duration) {
	if !g.started {
		g.started = true
		g.lastAt = at
		return
	}
	if at < g.lastAt {
		at = g.lastAt
	}
	g.total += g.level * (at - g.lastAt).Seconds()
	g.lastAt = at
}

// Finish extends the integral to time at without changing the level and
// returns the total.
func (g *Integral) Finish(at time.Duration) float64 {
	g.advance(at)
	return g.total
}

// TimelinePoint is one point of a resource-usage timeline.
type TimelinePoint struct {
	At    time.Duration
	Level float64
}

// Timeline records a piecewise-constant level over time, keeping every
// change point, for rendering usage timelines (paper Fig. 2(b)).
type Timeline struct {
	points []TimelinePoint
	level  float64
}

// NewTimeline returns an empty timeline at level 0.
func NewTimeline() *Timeline { return &Timeline{} }

// Set records the level at time at.
func (t *Timeline) Set(at time.Duration, level float64) {
	t.level = level
	t.points = append(t.points, TimelinePoint{At: at, Level: level})
}

// AddDelta adjusts the level by delta at time at.
func (t *Timeline) AddDelta(at time.Duration, delta float64) {
	t.Set(at, t.level+delta)
}

// Points returns the recorded change points in order.
func (t *Timeline) Points() []TimelinePoint {
	out := make([]TimelinePoint, len(t.points))
	copy(out, t.points)
	return out
}

// SampleAt returns the level in effect at time at (the last change point not
// after at), or 0 if at precedes the first point.
func (t *Timeline) SampleAt(at time.Duration) float64 {
	lvl := 0.0
	for _, p := range t.points {
		if p.At > at {
			break
		}
		lvl = p.Level
	}
	return lvl
}

// MB is a mebibyte, for readability in experiment code.
const MB int64 = 1 << 20

// BytesToMB converts a byte count to megabytes (MiB).
func BytesToMB(b int64) float64 { return float64(b) / float64(MB) }
