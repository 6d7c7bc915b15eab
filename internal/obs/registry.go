package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// NumStripes is the lane count of striped instruments. Must be a power of
// two (stripe tags are masked with NumStripes-1). internal/core mints its
// Invocations' stripe tags modulo it, so a request stays on one lane of
// every instrument it touches.
const NumStripes = 8

// paddedInt64 is an atomic counter padded out to its own cache line so
// neighbouring lanes never false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is one logical int64 sharded over padded lanes. Registered
// counters only grow; the engine also embeds zero-value Counters as
// up/down in-flight tallies. The zero value is ready to use.
type Counter struct {
	lanes [NumStripes]paddedInt64
}

// Add folds d into the lane picked by stripe (masked, any value is safe) and
// returns the lane's new value: a per-stripe sequence for sampling callers.
func (c *Counter) Add(stripe uint32, d int64) int64 {
	return c.lanes[stripe&(NumStripes-1)].v.Add(d)
}

// Inc adds one on the lane picked by stripe.
func (c *Counter) Inc(stripe uint32) { c.Add(stripe, 1) }

// Load returns the summed value across lanes (torn read, see package doc).
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.lanes {
		sum += c.lanes[i].v.Load()
	}
	return sum
}

// Registry is a named set of instruments. Lookup is get-or-create under a
// lock — resolve instruments once at setup time and keep the pointers on
// the hot path (the hotpath analyzer enforces this in //repolint:hotpath
// files). Instrument names may carry Prometheus labels inline:
// `wmm_mem_bytes{node="w1"}`.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	fns      map[string]func() int64
	hists    map[string]*Histogram

	ring atomic.Pointer[SpanRing]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		fns:      make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// std is the process-wide registry.
var std = NewRegistry()

// Default returns the process-wide registry. Internal packages register
// their instruments here at init/setup, so one /metrics endpoint exposes
// the whole process; multiple engines in one process accumulate into the
// same series, exactly as multiple goroutines of one engine do.
func Default() *Registry { return std }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// SetGaugeFunc registers a pull-time gauge: fn is evaluated at every
// Snapshot. Re-registering a name replaces the function (the idiom for
// per-object gauges — the latest object wins); a nil fn removes it.
// Functions must be safe to call concurrently with anything.
func (r *Registry) SetGaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fn == nil {
		delete(r.fns, name)
		return
	}
	r.fns[name] = fn
}

// SetRing attaches g as the registry's sampled-span ring, served by
// /debug/requests. The engine that owns sampling attaches its per-System
// ring here; the last attached ring wins.
func (r *Registry) SetRing(g *SpanRing) { r.ring.Store(g) }

// Ring returns the attached span ring, lazily creating a default-sized
// one so transport servers can record remote stages before (or without)
// an engine attaching its own.
func (r *Registry) Ring() *SpanRing {
	if g := r.ring.Load(); g != nil {
		return g
	}
	g := NewSpanRing(0)
	if r.ring.CompareAndSwap(nil, g) {
		return g
	}
	return r.ring.Load()
}

// Snapshot is a point-in-time copy of every instrument. Gauge functions
// are evaluated into Gauges. Histograms carry full bucket vectors.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument (torn across lanes, see package doc).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	fns := make(map[string]func() int64, len(r.fns))
	for name, fn := range r.fns {
		fns[name] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.RUnlock()

	// Instruments are read outside the registry lock: gauge functions may
	// take their own locks (sink shards, cluster state) and must not nest
	// inside ours.
	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(fns)),
		Histograms: make(map[string]HistSnapshot, len(hists)),
	}
	for name, c := range counters {
		s.Counters[name] = c.Load()
	}
	for name, fn := range fns {
		s.Gauges[name] = fn()
	}
	for name, h := range hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// names returns the sorted keys of a map (exposition order).
func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
