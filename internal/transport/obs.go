package transport

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide transport instruments, resolved once at init (registry
// lookups are setup-time only — see the hotpath analyzer). Client counters
// cover the dialing side of every exchange, server counters the serving
// side, so a process that is both (a coordinator with a local worker)
// reports both views.
var (
	obsFramesSent = obs.Default().Counter("transport_frames_sent_total")
	obsFramesRecv = obs.Default().Counter("transport_frames_recv_total")
	obsBytesSent  = obs.Default().Counter("transport_bytes_sent_total")
	obsBytesRecv  = obs.Default().Counter("transport_bytes_recv_total")
	obsRetries    = obs.Default().Counter("transport_retries_total")
	obsTimeouts   = obs.Default().Counter("transport_timeouts_total")

	obsServerFrames = obs.Default().Counter("transport_server_frames_total")
	obsServerBytes  = obs.Default().Counter("transport_server_bytes_total")
)

// obsStripeSeq spreads clients and server connections across instrument
// lanes; each endpoint keeps one stripe for its lifetime.
var obsStripeSeq atomic.Uint32
