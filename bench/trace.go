package main

import (
	"sync/atomic"
	"time"
)

// The traced run records spans from outside the engine: the load clients
// stamp around their own Invoke and Wait calls, the benchmark's handlers
// stamp inside themselves, and both find the request's record through the
// 8-byte sequence the payload carries. Nothing under internal/ is touched.

// maxSlots is the most function instances one request of any workload runs.
const maxSlots = 2 + fanParts

// recRing is how many of a client's most recent requests keep a record. A
// client has one request in flight, so only a handler goroutine descheduled
// across recRing whole requests could find its record reused — and the
// sequence tag then turns its stamps away.
const recRing = 8

// instStamp is one function instance's four timestamps, in nanoseconds
// since the tracer's epoch (0 = not stamped). They are atomics because a
// handler's Put can complete the request, and wake the client that folds
// the record, before the handler has stamped the Put's return.
type instStamp struct {
	start, inputRet, putStart, putRet atomic.Int64
}

type reqRecord struct {
	seq  atomic.Uint64
	inst [maxSlots]instStamp
}

type tracer struct {
	epoch time.Time
	slots int                  // instances per request of the traced workload
	recs  [][recRing]reqRecord // per client
}

func newTracer(w *workload) *tracer {
	return &tracer{epoch: time.Now(), slots: w.instances(), recs: make([][recRing]reqRecord, w.clients)}
}

// now is never 0, so 0 can mean "not stamped".
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) + 1 }

// seqOf packs a client's id and request number into the payload sequence.
func seqOf(client int, n uint64) uint64 { return uint64(client)<<48 | n }

func (t *tracer) record(seq uint64) *reqRecord {
	return &t.recs[seq>>48][seq%recRing]
}

// begin claims the record for a new request.
func (t *tracer) begin(seq uint64) *reqRecord {
	r := t.record(seq)
	r.seq.Store(0)
	for i := range r.inst[:t.slots] {
		s := &r.inst[i]
		s.start.Store(0)
		s.inputRet.Store(0)
		s.putStart.Store(0)
		s.putRet.Store(0)
	}
	r.seq.Store(seq)
	return r
}

// stamp returns the instance's stamps in seq's record, or nil when the
// record has moved on to a later request.
func (t *tracer) stamp(seq uint64, slot int) *instStamp {
	r := t.record(seq)
	if r.seq.Load() != seq {
		return nil
	}
	return &r.inst[slot]
}

// Span kinds the client folds each request into.
const (
	spInvoke   = iota // Invoke call → return
	spEntry           // Invoke start → entry handler start
	spEdge            // producers' last Put return → consumer handler start
	spPut             // Put/PutForeach call → return
	spInput           // handler start → Input/InputList return
	spSelf            // Input return → Put call (the handler's own compute)
	spComplete        // last handler's Put return → Wait return
	spGap             // latency − Σ critical-path spans, absolute value
	spSkew            // first → last instance start of a fanned-out stage
	spLatency         // Invoke start → Wait return, for the traced window
	spCount
)

// spanSet is one client's span histograms.
type spanSet [spCount]hist

// fold turns a finished request's record into spans. Handlers stamp
// concurrently with the client (see instStamp), so a missing putRet reads as
// "returned when the request did".
func (ss *spanSet) fold(w *workload, r *reqRecord, invokeStart, invokeRet, waitRet int64) {
	ss[spInvoke].add(invokeRet - invokeStart)
	ss[spLatency].add(waitRet - invokeStart)

	// gate is when the previous stage's last Put returned; crit is the span
	// sum along the critical path (each stage's last-returning instance).
	gate := invokeStart
	var spanBuf [8]int64 // two per stage plus completion; no workload has more than three stages
	spans := spanBuf[:0]
	for si, stage := range w.stages {
		var critStart, critRet, first, last int64
		for _, slot := range stage {
			s := &r.inst[slot]
			start, inputRet, putStart, putRet := s.start.Load(), s.inputRet.Load(), s.putStart.Load(), s.putRet.Load()
			if start == 0 {
				start = waitRet
			}
			if putRet == 0 {
				putRet = waitRet
			}
			if si == 0 {
				ss[spEntry].add(start - gate)
			} else {
				ss[spEdge].add(start - gate)
			}
			if inputRet != 0 && putStart != 0 {
				ss[spInput].add(inputRet - start)
				ss[spSelf].add(putStart - inputRet)
				ss[spPut].add(putRet - putStart)
			}
			if first == 0 || start < first {
				first = start
			}
			last = max(last, start)
			if putRet >= critRet {
				critStart, critRet = start, putRet
			}
		}
		if len(stage) > 1 {
			ss[spSkew].add(last - first)
		}
		spans = append(spans, critStart-gate, critRet-critStart)
		gate = critRet
	}
	ss[spComplete].add(waitRet - gate)
	spans = append(spans, waitRet-gate)
	gap := spanGap(waitRet-invokeStart, spans...)
	ss[spGap].add(max(gap, -gap))
}
