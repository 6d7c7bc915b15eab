package transport

import (
	"context"

	"repro/internal/dataflow"
	"repro/internal/pipe"
	"repro/internal/wmm"
)

// Inproc is the in-process transport: a direct call into the node's sink
// behind the interface. ShipBatch is one TakeNAt on the source TC class and
// one sink multi-put under one clock read (none when the shipment carries
// nothing to put, as every engine land on an in-process node does: there
// the request's tracker holds the data); Land mirrors the socket fast path's
// Take. No operation fails or consults a context, and the transport
// allocates nothing itself (a put allocates its sink entry).
type Inproc struct {
	sink    *wmm.Sink
	elapsed Elapsed
}

var _ Transport = (*Inproc)(nil)

// NewInproc wraps a node's sink and elapsed-time source as a Transport.
// There is no node NIC limiter: the limiter argument is unused, and ROADMAP
// item 1 (the bench/-only PR) drops it with bench/ladder.go's call.
func NewInproc(sink *wmm.Sink, _ *pipe.Limiter, elapsed Elapsed) *Inproc {
	return &Inproc{sink: sink, elapsed: elapsed}
}

// ShipBatch implements Transport.
func (t *Inproc) ShipBatch(_ context.Context, pace Pacing, reqs []wmm.PutReq) error {
	if pace.Bytes > 0 {
		parked := pace.Src.TakeNAt(pace.Items, pace.Bytes, pace.At)
		if pace.Parked != nil {
			*pace.Parked += parked
		}
	}
	if len(reqs) > 0 { // none: an engine land on an in-process node pays the wire only
		t.sink.PutBatch(t.elapsed(), reqs)
	}
	return nil
}

// Land implements Transport.
func (t *Inproc) Land(_ context.Context, pace Pacing, req wmm.PutReq) error {
	if pace.Bytes > 0 {
		pace.Src.Take(pace.Bytes)
	}
	t.sink.Put(t.elapsed(), req.Key, req.Val, req.Consumers)
	return nil
}

// Get implements Transport.
func (t *Inproc) Get(_ context.Context, key wmm.Key) (dataflow.Value, bool, error) {
	v, _, ok := t.sink.Get(t.elapsed(), key)
	return v, ok, nil
}

// Release implements Transport.
func (t *Inproc) Release(_ context.Context, reqID string) error {
	t.sink.ReleaseRequest(t.elapsed(), reqID)
	return nil
}

// Clear implements Transport.
func (t *Inproc) Clear(_ context.Context) error {
	t.sink.Clear(t.elapsed())
	return nil
}

// Stats implements Transport.
func (t *Inproc) Stats(_ context.Context) (wmm.Stats, error) {
	return t.sink.Stats(), nil
}

// MemBytes implements Transport.
func (t *Inproc) MemBytes() int64 { return t.sink.MemBytes() }

// Ping implements Transport: an in-process node is always reachable.
func (t *Inproc) Ping(_ context.Context) error { return nil }

// Close implements Transport.
func (t *Inproc) Close() error { return nil }

// StreamSpec describes one streaming-pipe movement (Stream).
type StreamSpec struct {
	// ID names the stream for checkpointing and failure injection.
	ID string
	// Src is the source container's TC-class limiter.
	Src *pipe.Limiter
	// Log records incremental checkpoints for streaming-sized payloads.
	Log *pipe.CheckpointLog
	// FailAfter, when non-nil, is re-asked before every (re)attempt for the
	// byte offset at which to inject a failure (-1 for none).
	FailAfter func() int64
	// Retries is the ReDo budget after the first failed attempt.
	Retries int
}

// Stream pumps one payload through the streaming pipe: chunked, the source
// limiter charged per chunk, incremental checkpoints for streaming-sized
// payloads, optional fault injection, and ReDo from the last good
// checkpoint. It moves the bytes only — the payload must still be landed
// (Land) afterwards; Stream is the wire, not the sink. Inproc-only: a
// remote destination's wire is the socket itself, which needs none of the
// simulated chunking.
func (t *Inproc) Stream(spec StreamSpec, payload []byte) error {
	lims := [1]*pipe.Limiter{spec.Src}
	tr := pipe.Transfer{
		StreamID:  spec.ID,
		Payload:   payload,
		Limiters:  lims[:],
		FailAfter: -1,
	}
	if int64(len(payload)) > pipe.SmallDataThreshold {
		// Small payloads record no checkpoints: an interrupted small send is
		// redone whole.
		tr.Log = spec.Log
	}
	if spec.FailAfter != nil {
		tr.FailAfter = spec.FailAfter()
	}
	deliver := func(off int64, chunk []byte, total int64) {}
	_, err := tr.Run(0, deliver)
	for attempt := 0; err != nil && attempt < spec.Retries; attempt++ {
		// ReDo from the last good checkpoint (§6.2).
		if spec.FailAfter != nil {
			tr.FailAfter = spec.FailAfter()
		}
		_, err = tr.Resume(deliver)
	}
	if err != nil {
		return err
	}
	if tr.Log != nil {
		tr.Log.Clear(spec.ID)
	}
	return nil
}
