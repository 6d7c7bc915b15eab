//repolint:hotpath every request takes and returns its engine state here; see the hotpath analyzer

package core

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/obs"
)

// A request has two halves. The Invocation is the caller's handle: small,
// allocated once per request, valid forever. The request is the engine's
// state for it — tracker, arrival log, route pins, sink residue, ReDo counts,
// sampled span — taken from a per-stripe free-list and recycled.
//
// A request is recycled only when its last reference drops. Its own "not
// finished" state holds one; so does every admitted instance job (running,
// queued or parked as a continuation), every task queued to a DLU daemon,
// and Invoke while it registers the request: a producer's late Put routes on
// a request torn down but not recycled. A reference moves where it can:
// Invoke's becomes its lone entry job's, and a continuation inherits its
// producer's. Under the package's tests (checkGen) each recycle bumps gen,
// and jobs and queued tasks carry the generation they were made under,
// asserted where they use the request.

// Invocation is the caller's handle on one workflow request: its id, latency,
// terminal error and user outputs. It stays valid after the request finished
// and the engine reused its state. Until the request finished, Err, Latency
// and Outputs return zero values; after, they read it without a lock.
type Invocation struct {
	id int64
	// wg is Wait's signal: one count, released when the request finishes.
	wg sync.WaitGroup

	// finished publishes the outcome below, which finish writes once before.
	finished atomic.Bool
	err      error
	lat      time.Duration
	// outputs are the user items, copied in at finish; outBuf seeds them so
	// a single-output workflow's copy allocates nothing.
	outputs []dataflow.Item
	outBuf  [1]dataflow.Item
	// done holds Done's channel, unboxed (a channel is pointer-shaped): made
	// by the first Done in flight, closed and swapped for closedDone at finish.
	done atomic.Value

	mu sync.Mutex // guards idStr
	// idStr is the formatted id, made by the first ReqID call.
	idStr string
}

// ReqID returns the request's identifier, "req-<n>". It is formatted on the
// first call: a request that stays in process keys no sink entry and, unless
// it streams, names no stream, so it never makes the string.
func (inv *Invocation) ReqID() string {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.idStr == "" {
		var buf [24]byte
		inv.idStr = string(strconv.AppendInt(append(buf[:0], "req-"...), inv.id, 10))
	}
	return inv.idStr
}

// closedDone is the Done channel of a request that finished: a Done after
// the finish needs no channel of its own.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Done is closed when the request completes (successfully or not). The
// channel is made on the first call while the request runs; Wait needs none.
func (inv *Invocation) Done() <-chan struct{} {
	c, _ := inv.done.Load().(chan struct{})
	if c == nil && !inv.finished.Load() {
		c = make(chan struct{})
		if !inv.done.CompareAndSwap(nil, c) {
			c = inv.done.Load().(chan struct{}) // another Done's channel, or closedDone
		}
	}
	// finish stores finished before it loads done, and Done the reverse, so
	// one of the two sees the other and closes the channel.
	if inv.finished.Load() {
		inv.closeDone()
		return closedDone
	}
	return c
}

// closeDone swaps closedDone in and closes the channel it displaced, if any:
// of finish and a racing Done, the one that takes it out closes it.
func (inv *Invocation) closeDone() {
	if c, _ := inv.done.Swap(closedDone).(chan struct{}); c != nil && c != closedDone {
		close(c)
	}
}

// outcome is inv once its request finished, else a handle of zero values.
func (inv *Invocation) outcome() *Invocation {
	if inv.finished.Load() {
		return inv
	}
	return &unfinished
}

var unfinished Invocation

// Err returns the terminal error, if any. Valid after Done is closed.
func (inv *Invocation) Err() error { return inv.outcome().err }

// Latency returns the end-to-end latency. Valid after Done is closed.
func (inv *Invocation) Latency() time.Duration { return inv.outcome().lat }

// Outputs returns the items delivered to the user. Valid after Done is
// closed.
func (inv *Invocation) Outputs() []dataflow.Item { return inv.outcome().outputs }

// OutputBytes returns the payload of the first user item with the given
// source function output name, for convenient assertions.
func (inv *Invocation) OutputBytes(output string) ([]byte, bool) {
	outs := inv.Outputs()
	for i := range outs {
		if outs[i].Output == output {
			return outs[i].Value.Payload, true
		}
	}
	return nil, false
}

// Wait blocks until completion and returns the terminal error.
func (inv *Invocation) Wait() error {
	inv.wg.Wait()
	return inv.Err()
}

// finish records the request's outcome in the handle, publishes it and
// releases its waiters. request.finishLocked calls it once. It closes a
// channel an earlier Done made; a later Done sees finished. A request nobody
// called Done on costs one load here: done is never stored.
func (inv *Invocation) finish(err error, lat time.Duration, outs []dataflow.Item) {
	inv.err, inv.lat = err, lat
	inv.outputs = append(inv.outBuf[:0], outs...)
	inv.finished.Store(true)
	if inv.done.Load() != nil {
		inv.closeDone()
	}
	inv.wg.Done()
}

// request is one request's engine state (see the top of this file).
type request struct {
	sys *System
	inv *Invocation // the handle; nil on the free-list
	// refs counts the references that keep the state from being recycled;
	// gen counts recycles (only under checkGen, the tests' assert on it).
	refs   atomic.Int32
	gen    atomic.Uint32
	stripe uint32   // the request's lane of the striped engine counters
	next   *request // free-list link
	start  time.Duration

	tracker dataflow.Tracker // embedded by value, reused with the request
	mu      sync.Mutex
	err     error
	// attempts counts ReDo attempts per instance (allocated on first
	// failure; the clean path never touches it).
	attempts map[dataflow.InstanceKey]int
	// arrivals records every datum landed in a remote sink with its key,
	// value and node, under the instance that fetches it (Tracker.Fetcher):
	// the fetch, teardown and replay read keys from it. Its backing is kept
	// with the request. Accessed under mu.
	arrivals cluster.ArrivalLog[*cluster.Node]

	// route holds the request's replica pins (none on the static fast
	// path). A request touches a handful of functions, so a
	// scanned slice beats a map. Accessed under mu.
	route []routePin

	// sinkResidue counts sink entries this request may still own: +1 per
	// landed Put, -1 per consuming Get that found its entry. A clean
	// completion with zero residue left nothing in any sink (shared entries
	// of a fanned function are fetched by no instance, TTL spills are only
	// reclaimed by sweeping, so both keep the count positive) and teardown
	// can skip the per-node ReleaseRequest sweep entirely.
	sinkResidue atomic.Int64

	// torn is set when the request finishes, before its teardown sweep. A
	// shipment puts, then reads it: set means the sweep may already be over
	// and the land cleans up after itself, clear means the sweep is still to
	// come and covers the late Put.
	torn atomic.Bool

	// routeBuf seeds route: a typical request pins a handful of functions,
	// so its first growth stays out of the heap. If route outgrows it,
	// append reallocates and the copied header keeps the (heap-alive) old
	// backing valid.
	routeBuf [4]routePin

	// span is the request's sampled trace record (nil for the unsampled
	// majority — every recording site is behind one nil check). Set in
	// Invoke; SpanRec is internally synchronized.
	span *obs.SpanRec
}

// reqFreeMax bounds each stripe's free-list: a burst's worth of engine state
// waits for the next burst, the rest goes to the collector.
const reqFreeMax = 64

// reqFreeList is one stripe's recycled requests. The pads keep its words off
// every other stripe's line however the array is aligned.
type reqFreeList struct {
	_    [64]byte
	mu   sync.Mutex
	head *request
	n    int
	_    [40]byte
}

// newRequest takes engine state for the handle inv off the stripe's
// free-list, or allocates it, for a request that started at start. It
// returns holding two references: the request's own "not finished" one and
// the caller's (Invoke's, which its lone entry job inherits).
func (s *System) newRequest(inv *Invocation, stripe uint32, start time.Duration) *request {
	fl := &s.freeReqs[stripe]
	fl.mu.Lock()
	r := fl.head
	if r != nil {
		fl.head, r.next = r.next, nil
		fl.n--
	}
	fl.mu.Unlock()
	if r == nil {
		r = &request{sys: s}
		r.route = r.routeBuf[:0]
	}
	r.inv, r.stripe, r.start = inv, stripe, start
	r.refs.Store(2)
	r.tracker.Init(s.wf, "")
	return r
}

// release drops one reference; the last one recycles the request.
func (r *request) release() {
	if n := r.refs.Add(-1); n > 0 {
		return
	} else if n < 0 {
		panic("core: request reference count went negative")
	}
	r.recycle()
}

// recycle drops everything the finished request references — payloads, pins,
// the handle — and files the state on its stripe's free-list.
func (r *request) recycle() {
	r.tracker.Reset()
	r.arrivals.Reset()
	// A route that outgrew its seed left stale copies in the seed.
	clear(r.route)
	if cap(r.route) > len(r.routeBuf) {
		clear(r.routeBuf[:])
	}
	r.route = r.routeBuf[:0]
	r.inv, r.err, r.attempts, r.span = nil, nil, nil, nil
	if r.sinkResidue.Load() != 0 {
		r.sinkResidue.Store(0)
	}
	r.torn.Store(false)
	if checkGen {
		r.gen.Add(1)
	}
	fl := &r.sys.freeReqs[r.stripe]
	fl.mu.Lock()
	if fl.n < reqFreeMax {
		r.next, fl.head = fl.head, r
		fl.n++
	}
	fl.mu.Unlock()
}

// anyNode passes every node: teardown reclaims whatever no instance fetched.
func anyNode(*cluster.Node) bool { return true }

// checkGen turns on the generation assert (live); the package's tests set it.
var checkGen bool

// live panics, under checkGen, if r was recycled since gen was read from it:
// a job or queued task outlived the reference it should have held.
func (r *request) live(gen uint32) {
	if checkGen && r.gen.Load() != gen {
		panic("core: request state used after it was recycled")
	}
}

// fail terminates the request with err (first error wins).
func (r *request) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
	r.finishLocked()
}

// finishLocked completes the request once: it tears the request down, hands
// the outcome to the handle — so a returned Wait finds the request untracked
// and its sweep done — and drops the "not finished" reference. Caller holds
// r.mu, and a reference of its own, so the drop never recycles under the lock.
func (r *request) finishLocked() {
	if r.torn.Load() {
		return
	}
	// Set before the sweep below: see torn.
	r.torn.Store(true)
	s, inv := r.sys, r.inv
	end := s.clk.Now()
	lat := end - r.start
	s.event(r, obs.ReqCompleted, "", 0)
	obsReqLat.Observe(r.stripe, int64(lat))
	if r.err != nil {
		obsFailed.Inc(r.stripe)
	} else {
		obsCompleted.Inc(r.stripe)
	}
	s.pendingInvs.Add(r.stripe, -1)
	r.teardown(end)
	inv.finish(r.err, lat, r.tracker.UserItems())
	r.refs.Add(-1)
}

// teardown is the end-of-request GC: release the request's leftover sink
// entries. Proactive release normally empties the memory tier earlier; this
// is what reclaims the shared inputs of fanned functions (read by every
// instance, fetched by none) and TTL-spilled disk copies, so a long-running
// system does not grow with request count. Caller holds r.mu.
func (r *request) teardown(end time.Duration) {
	s := r.sys
	if r.err == nil {
		// Clean completion leaves only the data no instance fetched — those
		// shared inputs — whose keys and nodes the arrival log has: consume
		// them instead of sweeping every node. If the books still don't
		// balance (a TTL spill, a superseded re-put), fall through to the
		// sweep. A shipment still in flight sweeps after itself when it lands
		// on a torn request.
		if r.sinkResidue.Load() != 0 {
			for i := r.arrivals.NextUnfetched(-1, anyNode); i >= 0; i = r.arrivals.NextUnfetched(i, anyNode) {
				a := r.arrivals.At(i)
				if _, ok, err := a.Node.SinkGet(a.Key); err == nil && ok {
					r.sinkResidue.Add(-1)
				}
			}
		}
		if r.sinkResidue.Load() == 0 {
			return // nothing to sweep, so nothing to time: the histogram counts sweeps
		}
	}
	id := r.inv.ReqID()
	if s.static {
		for _, n := range s.routedNodes {
			n.SinkRelease(id) //nolint:errcheck // best effort: an unreachable sink holds nothing to release
		}
	} else {
		// Every sink Put of a pinned request landed on one of its pins.
		for i := range r.route {
			r.route[i].node.SinkRelease(id) //nolint:errcheck // best effort: an unreachable sink holds nothing to release
		}
	}
	obsTeardownLat.Observe(r.stripe, int64(s.clk.Now()-end))
}
