package obs

import "time"

// Integral accumulates a time-weighted integral of a piecewise-constant
// level, e.g. bytes of memory held over time. The result unit is
// level-unit · seconds (the paper reports GB·s and MB·s). The zero value is
// an integral that starts at level 0 at its first change. Not safe for
// concurrent use: the sink updates its shard's under the shard lock, the
// simulation from its one event loop.
type Integral struct {
	level   float64
	lastAt  time.Duration
	total   float64
	started bool
}

// Set changes the level at time at. Calls must have non-decreasing at;
// earlier timestamps are clamped to the previous timestamp.
func (g *Integral) Set(at time.Duration, level float64) {
	g.advance(at)
	g.level = level
}

// AddDelta changes the level by delta at time at.
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
