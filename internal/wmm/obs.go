package wmm

import "repro/internal/obs"

// Process-wide sink instruments, resolved once at init (registry lookups are
// setup-time only — see the hotpath analyzer). They mirror the per-sink
// Stats counters but are cumulative across every sink in the process and
// readable lock-free from /metrics; each shard updates its own stripe
// alongside the locked per-shard counter, so the hot path pays one extra
// uncontended atomic add per event.
var (
	obsPuts      = obs.Default().Counter("wmm_puts_total")
	obsMemHits   = obs.Default().Counter("wmm_mem_hits_total")
	obsDiskHits  = obs.Default().Counter("wmm_disk_hits_total")
	obsMisses    = obs.Default().Counter("wmm_misses_total")
	obsProactive = obs.Default().Counter("wmm_proactive_releases_total")
	obsExpired   = obs.Default().Counter("wmm_expirations_total")
)
