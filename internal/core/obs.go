package core

import "repro/internal/obs"

// This file is the engine's observability surface: the always-on metric
// instruments (resolved once at init from the process-wide registry, so
// hot-path updates are striped atomic adds — see the hotpath analyzer) and
// the sampled request-tracing plane (ObsConfig).
//
// The instruments are process-wide, prometheus-style: several Systems in
// one process accumulate into the same series. The sampled span ring is
// per-System but published to the default registry, so /debug/requests in
// any process that mounts obs.Handler shows the engine's sampled spans.

// ObsConfig configures the engine's sampled request tracing: a sampled
// request records its stages (obs.StageKind) into a ring of
// obs.DefaultSpanRingSize records (the oldest is evicted when a new one
// starts past it), and its trace context rides the shipment headers so a
// remote sink's landing stages correlate.
type ObsConfig struct {
	// SampleEvery records spans for one request in every SampleEvery
	// (request numbers divisible by it). 0 disables sampling; 1 samples
	// every request. Unsampled requests allocate nothing for tracing.
	SampleEvery int
}

// Engine instruments. Counters and histograms are striped; callers tag
// updates with the request's stripe so concurrent cores stay on their own
// cache lines.
var (
	obsRequests  = obs.Default().Counter("core_requests_total")
	obsCompleted = obs.Default().Counter("core_completed_total")
	obsFailed    = obs.Default().Counter("core_failed_total")
	obsReplays   = obs.Default().Counter("core_replays_total")

	// Invocations refused: Invoke after Shutdown, and input the tracker
	// rejects (the request is registered and torn down at once).
	obsRejShutdown = obs.Default().Counter(`core_rejections_total{reason="shutdown"}`)
	obsRejInvalid  = obs.Default().Counter(`core_rejections_total{reason="invalid"}`)

	// Stage latencies, in nanoseconds: exec (one handler run), request
	// (end-to-end), teardown (the post-completion sink sweep; a request that
	// left nothing to sweep records none).
	obsExecLat     = obs.Default().Histogram("core_exec_latency_ns")
	obsReqLat      = obs.Default().Histogram("core_request_latency_ns")
	obsTeardownLat = obs.Default().Histogram("core_teardown_latency_ns")

	// obsBatchItems is the items per shipped DLU task, the daemon's and the
	// inline ships' alike. The series keeps its batch name: the benchmark's
	// traced report and cmd/node's end-to-end test read it by that name.
	obsBatchItems = obs.Default().Histogram("core_dlu_batch_items")

	// Which path the edges take: Puts shipped on the FLU's own goroutine
	// (the rest went through the DLU daemon), consumers run to completion
	// on their producer's goroutine (the rest woke through the executor
	// pool), and instances run on the goroutine that called Invoke.
	obsInlineShips   = obs.Default().Counter("core_inline_ships_total")
	obsContinuations = obs.Default().Counter("core_continuations_total")
	obsCallerRuns    = obs.Default().Counter("core_caller_runs_total")
)

// publishRing attaches the System's span ring to the default registry so
// /debug/requests (obs.Handler) serves it. Setup-time only — core.go is a
// hot-path file and may not touch the registry itself.
func publishRing(g *obs.SpanRing) {
	obs.Default().SetRing(g)
}

// event records one engine stage of a request into its sampled span, the
// engine's one record of a request's stages (SpanRing.Stages reads it
// back). One nil check on an unsampled request.
func (s *System) event(r *request, kind obs.StageKind, fn string, idx int) {
	if r.span != nil {
		r.span.Record(kind, s.now(), fn, idx)
	}
}
