package simcluster

import (
	"math"
	"sort"
	"time"
)

// Sample accumulates scalar observations (latencies in seconds) and answers
// order statistics. The zero value is an empty sample. Not safe for
// concurrent use; the simulation records from its one event loop.
type Sample struct {
	vals   []float64
	sorted bool
}

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
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
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

// P50 returns the median.
func (s *Sample) P50() float64 { return s.Percentile(50) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Percentile(99) }

// Timeline records a piecewise-constant level over time, keeping every
// change point, for rendering usage timelines (paper Fig. 2(b)) and for
// integrating busy and overlap time (timelineBusySec, timelineOverlapSec).
// The zero value is an empty timeline at level 0.
type Timeline struct {
	points []timelinePoint
	level  float64
}

// timelinePoint is one change point of a Timeline.
type timelinePoint struct {
	at    time.Duration
	level float64
}

// Set records the level at time at.
func (t *Timeline) Set(at time.Duration, level float64) {
	t.level = level
	t.points = append(t.points, timelinePoint{at: at, level: level})
}

// AddDelta adjusts the level by delta at time at.
func (t *Timeline) AddDelta(at time.Duration, delta float64) {
	t.Set(at, t.level+delta)
}

// SampleAt returns the level in effect at time at (the last change point not
// after at), or 0 if at precedes the first point.
func (t *Timeline) SampleAt(at time.Duration) float64 {
	lvl := 0.0
	for _, p := range t.points {
		if p.at > at {
			break
		}
		lvl = p.level
	}
	return lvl
}
