//repolint:hotpath
package a

import (
	"fmt"

	"repro/internal/obs"
)

// ---- formatting ----

type config struct {
	Trace func(string)
}

type invocation struct{}

func (i *invocation) fail(err error) {}

func ungated(c *config, key string, n int) string {
	s := fmt.Sprintf("key=%s n=%d", key, n) // want `fmt\.Sprintf allocates on a declared hot-path file`
	s += key + "!"                          // want `string concatenation allocates on a declared hot-path file`
	return s
}

func ungatedErrorf(n int) {
	err := fmt.Errorf("attempt %d", n) // want `fmt\.Errorf allocates on a declared hot-path file`
	_ = err
}

// A trace or injector guard does not exempt formatting: the hot path
// records stages, never formatted notes.
func gated(c *config, key string) {
	if c.Trace != nil {
		c.Trace(fmt.Sprintf("ship key=%s", key)) // want `fmt\.Sprintf allocates on a declared hot-path file`
		c.Trace("land " + key)                   // want `string concatenation allocates on a declared hot-path file`
	}
}

func gatedByInjector(c *config, key string) {
	injecting := c.Trace != nil
	if injecting {
		c.Trace("inject " + key) // want `string concatenation allocates on a declared hot-path file`
	}
}

// Error construction that exits immediately is cold.
func coldReturn(n int) error {
	if n < 0 {
		return fmt.Errorf("negative budget %d", n)
	}
	return nil
}

func coldFail(i *invocation, n int) {
	if n < 0 {
		i.fail(fmt.Errorf("negative budget %d", n))
	}
}

// Compile-time folded concatenation costs nothing at runtime.
func constConcat() string {
	return "ship" + "/" + "land"
}

// Only the outermost concat of a chain is reported.
func chain(a, b string) string {
	s := a + b + "suffix" // want `string concatenation allocates on a declared hot-path file`
	return s
}

func suppressedConcat(key string) string {
	return "cold-start:" + key //repolint:ignore hotpath runs once per container boot, not per request
}

// ---- registry lookups ----

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

func suppressedLookup(r *obs.Registry) *obs.Counter {
	return r.Counter("boot_total") //repolint:ignore hotpath runs once per container boot, not per request
}
