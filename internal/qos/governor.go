package qos

import (
	"sync/atomic"
	"time"
)

// Sample is one observation of the overload signals, assembled by the
// simulation's queue-transition hook.
type Sample struct {
	// At is the plane timestamp of the observation.
	At time.Duration
	// Pressure is the worst per-function Eq. 1 transfer-pressure estimate
	// (α·Size/Bw − T_FLU): positive means some function is transfer-bound.
	Pressure time.Duration
	// ResidentBytes is the Wait-Match Memory's memory-tier occupancy summed
	// over the cluster: the entries still waiting to be matched.
	ResidentBytes int64
	// QueueDepth and InFlight are the fair queue's parked and granted
	// counts; Capacity its grant capacity; Tenants the per-tenant breakdown.
	QueueDepth int
	InFlight   int
	Capacity   int
	Tenants    map[string]TenantLoad
}

// Governor turns overload samples into a per-tenant shed set. Update is
// called from one sampling loop; Shedding sits on the admission path and reads
// the current set through an atomic pointer, so admission never takes the
// governor's view apart mid-swap and never blocks on it.
type Governor struct {
	cfg  *Config
	shed atomic.Pointer[map[string]time.Duration]
}

// NewGovernor returns a governor with an empty shed set.
func NewGovernor(cfg *Config) *Governor {
	g := &Governor{cfg: cfg}
	empty := map[string]time.Duration{}
	g.shed.Store(&empty)
	return g
}

// Shedding reports whether the tenant is currently shed and the retry-after
// hint to hand back. Lock-free.
func (g *Governor) Shedding(tenant string) (retryAfter time.Duration, shed bool) {
	if g == nil {
		return 0, false
	}
	m := *g.shed.Load()
	if len(m) == 0 {
		return 0, false
	}
	ra, ok := m[tenant]
	return ra, ok
}

// Overloaded reports whether the sample crosses any of the engine's
// overload thresholds: the pending queue outgrew the shed depth; the engine
// is transfer-bound (Eq. 1 positive) while saturated with a backlog; or the
// Wait-Match Memory occupancy exceeded its bound.
func (g *Governor) Overloaded(s Sample) bool {
	if g == nil {
		return false
	}
	if s.QueueDepth > g.cfg.ShedQueueDepth {
		return true
	}
	if s.Pressure > 0 && s.QueueDepth > 0 && s.InFlight >= s.Capacity {
		return true
	}
	if g.cfg.MaxResidentBytes > 0 && s.ResidentBytes > g.cfg.MaxResidentBytes {
		return true
	}
	return false
}

// Update folds one sample into the shed set. While the engine is
// overloaded, every tenant whose demand (parked + in-flight) exceeds
// OverFactor times its weight share of the engine's work is shed; the
// moment the overload clears, so does the whole set — shedding bounds the
// damage of an overload, it is not a steady-state rate limit (that is the
// Limiter's job). It returns the tenants shed by this sample.
func (g *Governor) Update(s Sample) []string {
	if g == nil {
		return nil
	}
	if !g.Overloaded(s) {
		if len(*g.shed.Load()) != 0 {
			empty := map[string]time.Duration{}
			g.shed.Store(&empty)
		}
		return nil
	}
	totalWeight := 0
	for _, tl := range s.Tenants {
		if tl.Waiting+tl.InFlight > 0 {
			totalWeight += tl.Weight
		}
	}
	if totalWeight == 0 {
		// Overloaded (e.g. resident bytes still above the bound) but no
		// tenant has demand: there is nothing to arbitrate, and a stale
		// shed set would self-sustain — a shed tenant's demand stays zero
		// precisely because it is shed. Clear it.
		if len(*g.shed.Load()) != 0 {
			empty := map[string]time.Duration{}
			g.shed.Store(&empty)
		}
		return nil
	}
	// The pie being shared is the engine's current work, never less than
	// its capacity. A lone tenant's share is therefore its own demand and
	// it is never shed: shedding arbitrates between tenants, while a
	// single-tenant overload is bounded by its admission rate and the
	// queue's backpressure.
	pie := float64(s.InFlight + s.QueueDepth)
	if c := float64(s.Capacity); pie < c {
		pie = c
	}
	next := map[string]time.Duration{}
	var out []string
	for name, tl := range s.Tenants {
		demand := float64(tl.Waiting + tl.InFlight)
		if demand == 0 {
			continue
		}
		// Over-limit needs both a relative and an absolute excess: more
		// than OverFactor x the tenant's weight share, and more than a
		// whole capacity's worth of work beyond it — so a small tenant is
		// never shed just because a heavyweight neighbour shrank its share.
		share := float64(tl.Weight) / float64(totalWeight) * pie
		if demand > g.cfg.OverFactor*share && demand > share+float64(s.Capacity) {
			next[name] = g.cfg.RetryAfter
			out = append(out, name)
		}
	}
	g.shed.Store(&next)
	return out
}
