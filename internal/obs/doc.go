// Package obs is the always-on observability plane: lock-free striped
// counters, gauges and log-spaced latency histograms cheap enough to stay
// enabled on the invoke hot path, a bounded ring of sampled request spans,
// and exposition over HTTP (Prometheus text /metrics, JSON /debug
// endpoints) or via Snapshot for embedding in reports.
//
// # Instruments
//
// Counter is one logical int64 spread over cache-line-padded lanes so
// concurrent writers on different Ps never ping the same line. Writers pick
// a lane with a stripe tag (any value — it is masked); readers sum the
// lanes. Histogram applies
// the same striping to a fixed set of log2-spaced buckets (bucket i counts
// values v with bits.Len64(v) == i, i.e. v < 2^i), so Observe is two
// atomic adds. Gauges are pull-time functions (SetGaugeFunc).
//
// Reads are torn across lanes: a Snapshot taken during a storm can be
// momentarily skewed by in-flight deltas. Every consumer tolerates this —
// the instruments feed dashboards and regression gates, not invariants.
//
// # Registry
//
// A Registry is a named set of instruments with get-or-create lookup.
// Lookups take a lock, so hot paths must resolve their instruments once at
// setup time and hold the returned pointers; the hotpath repolint analyzer
// enforces this for files declaring //repolint:hotpath. Names may embed
// Prometheus labels inline ("cluster_health_transitions_total{to=\"down\"}").
// Default() is the process-wide registry every internal package registers
// into, so one /metrics endpoint exposes the whole process.
//
// # Sampled request spans
//
// SpanRing holds the last N sampled request span records: timestamped
// stages (StageKind), the one record of a request's stages on both planes —
// the simulation records its single-request runs into the same []Stage.
// Spans, TriggerGaps, FormatTimeline and Gantt turn one request's stages
// (SpanRing.Stages) into the paper's Fig. 13 timeline and Fig. 2(c) trigger
// gaps. Sampling is 1-in-N by request number: unsampled requests cost one
// modulo and carry a nil *SpanRec (all SpanRec methods are nil-safe
// no-ops), so the unsampled path does not allocate.
// The trace id propagates across the TCP transport (transport.Pacing) so a
// remote worker's DataArrived stages correlate with the coordinator's
// spans by trace id in the two processes' /debug/requests outputs.
//
// # Time-weighted integrals
//
// Integral accumulates level × seconds of a piecewise-constant level: the
// sink's per-shard cache occupancy (Fig. 14's MB·s) and the simulation's
// container memory (GB·s). Its zero value is ready; it takes no lock, so
// its owner serializes the updates.
//
// # Exposition
//
// Handler serves /metrics (Prometheus text format), /debug/requests
// (sampled spans as JSON) and /debug/health; Serve mounts it on a TCP
// listener. cmd/node and cmd/dataflower expose it behind -http, and
// cmd/scenario and cmd/benchrunner embed Registry.Snapshot() in their
// reports behind -obs (off by default: scenario reports must stay
// byte-identical across runs for the CI determinism check).
package obs
