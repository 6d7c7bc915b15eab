// Package transport is the explicit transport surface of DataFlower's
// runtime plane: the boundary the DLU ship/land path, the consume path and
// the teardown messages cross to reach a node's Wait-Match Memory.
//
// Everything above this interface keeps one programming model — the engine
// ships batches, lands items, gets inputs and releases requests the same
// way — while the data path below it is either a direct in-process call
// (Inproc: the pipe.Limiter-paced path, byte-identical to the pre-interface
// engine and still the benchmark default) or a real socket (Client/Server:
// length-prefixed frames carrying the host-container collaborative
// protocol, with typed wire errors feeding the engine's failure detection).
// The split mirrors the disaggregated-memory programming-model line of
// work: same API, amortized batched access once the data sits across a real
// boundary.
package transport

import (
	"context"
	"time"

	"repro/internal/dataflow"
	"repro/internal/pipe"
	"repro/internal/wmm"
)

// Pacing is the source-side shaping of one shipment: the producing
// container's TC-class limiter and the batch totals it is charged for.
// Bytes == 0 means unpaced (a local pipe, or a replayed shipment whose wire
// cost was already paid). The destination side is not paced in process; a
// socket simply is the NIC.
// TraceID is the shipment's sampled-request trace context (0 = unsampled);
// the TCP transport propagates it in the frame so the receiving process
// records its landing stages under the same id. Parked, when non-nil, is
// credited with the time the charge spent parked in a limiter: the engine
// sets it when it ships on an FLU's own goroutine, where a park is a block
// the FLU's execution time must not absorb. At is a reading of the
// limiters' clock that goroutine already took (pipe.Limiter.TakeNAt;
// clock.NoReading: none). Only Inproc honours Parked and At — a remote
// shipment never runs on an FLU's goroutine.
type Pacing struct {
	Src     *pipe.Limiter
	Items   int
	Bytes   int64
	TraceID uint64
	Parked  *time.Duration
	At      time.Duration
}

// Transport is one engine's channel to one node's Wait-Match Memory. All
// implementations are safe for concurrent use. Every returned error wraps
// one of the typed wire errors (errors.go); Inproc never fails.
type Transport interface {
	// ShipBatch lands one DLU shipment edge — all reqs under a single
	// timestamp with one source pacing charge (the batched amortization of
	// the boundary crossing).
	ShipBatch(ctx context.Context, pace Pacing, reqs []wmm.PutReq) error
	// Land lands a single datum outside a shipment (the failover replay
	// re-lands the lost items of the coordinator's arrival log one at a time).
	Land(ctx context.Context, pace Pacing, req wmm.PutReq) error
	// Get consumes one datum (proactive-release accounting applies).
	Get(ctx context.Context, key wmm.Key) (dataflow.Value, bool, error)
	// Release drops every entry of the request (teardown).
	Release(ctx context.Context, reqID string) error
	// Clear wipes the sink (node failure handling).
	Clear(ctx context.Context) error
	// Stats reads the sink's cumulative counters.
	Stats(ctx context.Context) (wmm.Stats, error)
	// MemBytes returns the sink's resident bytes. Remote transports return
	// the gauge piggybacked on the last heartbeat rather than issuing an RPC.
	MemBytes() int64
	// Ping probes liveness; the health prober turns its typed errors into
	// Draining/Down transitions.
	Ping(ctx context.Context) error
	// Close releases the transport's resources.
	Close() error
}

// Elapsed is a node-relative timestamp source (time since the node
// started); sink timestamps are derived from it so TTL accounting matches
// the in-process engine's.
type Elapsed func() time.Duration
