package pipe

import "repro/internal/obs"

// Process-wide pacing instruments, resolved once at init. They are touched
// only after a limiter really parked — at most once per limiterGranularity
// of link time per stream — never on the sub-granularity path that returns
// without a park, so all parks share stripe 0.
var (
	obsParks = obs.Default().Counter("pipe_parks_total")
	// obsParkLate is the pacing error: how long after its bucket deadline a
	// parked taker was running again. Zero on a clock that wakes on time.
	obsParkLate = obs.Default().Histogram("pipe_park_late_ns")
)
