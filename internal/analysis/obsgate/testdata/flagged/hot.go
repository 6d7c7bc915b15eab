//repolint:hotpath
package a

import "repro/internal/obs"

// Resolved once at setup (the real repo does this in a non-hotpath
// obs.go); using the pointers is the intended hot-path surface.
var (
	puts = obs.Default().Counter("puts_total") // want `obs\.Default reaches the registry` `obs\.Registry\.Counter is a locked registry lookup`
	lat  *obs.Histogram
)

func recordOK(stripe uint32, d int64) {
	puts.Inc(stripe)
	lat.Observe(stripe, d)
}

func lookupPerEvent(r *obs.Registry, stripe uint32) {
	r.Counter("puts_total").Inc(stripe)   // want `obs\.Registry\.Counter is a locked registry lookup`
	r.Histogram("lat").Observe(stripe, 1) // want `obs\.Registry\.Histogram is a locked registry lookup`
}

func snapshotPerEvent(r *obs.Registry) int {
	return len(r.Snapshot().Counters) // want `obs\.Registry\.Snapshot is a locked registry lookup`
}

func freshRegistry() *obs.Registry {
	return obs.NewRegistry() // want `obs\.NewRegistry reaches the registry`
}

func methodValue(r *obs.Registry) func(string) *obs.Counter {
	return r.Counter // want `obs\.Registry\.Counter is a locked registry lookup`
}

func suppressed(r *obs.Registry) *obs.Counter {
	return r.Counter("boot_total") //repolint:ignore obsgate runs once per container boot, not per request
}
