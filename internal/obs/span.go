package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSpanRingSize is the record capacity used when NewSpanRing is
// given a non-positive size.
const DefaultSpanRingSize = 256

// Stage is one timestamped step of a request.
type Stage struct {
	Kind StageKind
	At   time.Duration // virtual/wall offset, as the engine's clock reports it
	Fn   string
	Idx  int
}

// SpanRec is one sampled request's span record. The engine holds the
// pointer on the Invocation and appends stages as the request moves
// through its lifecycle; a nil *SpanRec is inert, so the unsampled path
// carries nil and pays nothing.
type SpanRec struct {
	traceID uint64
	reqID   string

	mu     sync.Mutex
	stages []Stage
}

// ID returns the record's trace id; 0 on a nil (unsampled) record. The id
// is what crosses the wire (transport.Pacing) to correlate remote stages.
func (r *SpanRec) ID() uint64 {
	if r == nil {
		return 0
	}
	return r.traceID
}

// Record appends a stage. No-op on a nil record.
func (r *SpanRec) Record(kind StageKind, at time.Duration, fn string, idx int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stages = append(r.stages, Stage{Kind: kind, At: at, Fn: fn, Idx: idx})
	r.mu.Unlock()
}

// SpanRing is a bounded ring of sampled span records, indexed by trace id.
// When full, starting a new record evicts the oldest (visible via
// Evicted). Safe for concurrent use.
type SpanRing struct {
	origin string

	mu      sync.Mutex
	recs    []*SpanRec
	next    int
	byID    map[uint64]*SpanRec
	evicted int64

	seed uint64
	seq  atomic.Uint64
}

// NewSpanRing returns an empty ring holding up to size records
// (DefaultSpanRingSize when size <= 0). The trace-id sequence is seeded
// from crypto/rand so ids minted by different processes never collide.
func NewSpanRing(size int) *SpanRing {
	if size <= 0 {
		size = DefaultSpanRingSize
	}
	var b [8]byte
	_, _ = crand.Read(b[:])
	return &SpanRing{
		recs: make([]*SpanRec, 0, size),
		byID: make(map[uint64]*SpanRec, size),
		seed: binary.LittleEndian.Uint64(b[:]),
	}
}

// SetOrigin labels the ring with the process role ("coord", "worker:w1");
// the label rides on every /debug/requests snapshot so cross-process span
// dumps identify their side.
func (g *SpanRing) SetOrigin(o string) { g.origin = o }

// Origin returns the ring's process label.
func (g *SpanRing) Origin() string { return g.origin }

// NewTraceID mints a process-unique nonzero trace id (splitmix64 over the
// random seed plus a sequence, so ids are unique per process and almost
// surely unique across the cluster).
func (g *SpanRing) NewTraceID() uint64 {
	x := g.seed + g.seq.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // 0 means "unsampled" on the wire
	}
	return x
}

// Start allocates and inserts a record for traceID, evicting the oldest
// when the ring is full.
func (g *SpanRing) Start(traceID uint64, reqID string) *SpanRec {
	rec := &SpanRec{traceID: traceID, reqID: reqID}
	g.mu.Lock()
	if len(g.recs) < cap(g.recs) {
		g.recs = append(g.recs, rec)
	} else {
		old := g.recs[g.next]
		delete(g.byID, old.traceID)
		g.evicted++
		g.recs[g.next] = rec
		g.next = (g.next + 1) % cap(g.recs)
	}
	g.byID[traceID] = rec
	g.mu.Unlock()
	return rec
}

// Observe records a stage under traceID, starting a record if the id is
// unknown — the receive side of wire trace propagation, where a worker
// sees a coordinator-minted id for the first time. traceID 0 is ignored.
func (g *SpanRing) Observe(traceID uint64, reqID string, kind StageKind, at time.Duration, fn string, idx int) {
	if g == nil || traceID == 0 {
		return
	}
	g.mu.Lock()
	rec := g.byID[traceID]
	g.mu.Unlock()
	if rec == nil {
		rec = g.Start(traceID, reqID)
	}
	rec.Record(kind, at, fn, idx)
}

// Evicted returns how many records were overwritten by newer ones.
func (g *SpanRing) Evicted() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.evicted
}

// Stages returns a copy of reqID's recorded stages, from every resident
// record of it, sorted by At (stable, so stages of one instant keep their
// record order); nil when none is resident.
func (g *SpanRing) Stages(reqID string) []Stage {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	var out []Stage
	for _, rec := range g.recs {
		if rec.reqID == reqID {
			rec.mu.Lock()
			out = append(out, rec.stages...)
			rec.mu.Unlock()
		}
	}
	g.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// StageSnapshot is the JSON shape of one recorded stage.
type StageSnapshot struct {
	Kind string        `json:"kind"`
	At   time.Duration `json:"at_ns"`
	Fn   string        `json:"fn,omitempty"`
	Idx  int           `json:"idx,omitempty"`
}

// SpanSnapshot is the JSON shape of one sampled request.
type SpanSnapshot struct {
	TraceID string          `json:"trace_id"`
	ReqID   string          `json:"req_id"`
	Stages  []StageSnapshot `json:"stages"`
}

// Snapshot copies the resident records, oldest first.
func (g *SpanRing) Snapshot() []SpanSnapshot {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	recs := make([]*SpanRec, 0, len(g.recs))
	// Ring order: next..end are the oldest entries once the ring wrapped.
	recs = append(recs, g.recs[g.next:]...)
	recs = append(recs, g.recs[:g.next]...)
	g.mu.Unlock()

	out := make([]SpanSnapshot, 0, len(recs))
	for _, rec := range recs {
		rec.mu.Lock()
		stages := make([]StageSnapshot, len(rec.stages))
		for i, st := range rec.stages {
			stages[i] = StageSnapshot{Kind: st.Kind.String(), At: st.At, Fn: st.Fn, Idx: st.Idx}
		}
		rec.mu.Unlock()
		out = append(out, SpanSnapshot{
			TraceID: fmt.Sprintf("%016x", rec.traceID),
			ReqID:   rec.reqID,
			Stages:  stages,
		})
	}
	return out
}
