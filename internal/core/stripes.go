//repolint:hotpath request-ID blocks, the gate and the instance cap are on the Invoke path

// What a request touches on its stripe.
//
// The Invoke hot path would touch the shared request-ID sequence once per
// request; across cores every Add is a cache-line ping between Ps. idBlock
// hands each pooled allocator a run of idBlockSize request numbers from
// the shared sequence, so the global atomic is touched once per block
// instead. IDs stay unique and keep the "req-<n>" shape (a fresh system's
// first request is still req-1), but numbering is no longer dense: a block
// dropped by the pool skips its unused range. The block's stripe tag picks
// the lane of every striped word the request writes: the obs.Counters, the
// in-flight gate and the instance cap below.

package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// idBlockSize is the run of request numbers an idBlock claims from the
// shared sequence at a time.
const idBlockSize = 256

// idBlock is a pooled allocator over [next, end) request numbers. Its
// stripe tag rides along to every Invocation minted from it, so requests
// born on the same P keep hitting the same counter lanes.
type idBlock struct {
	next, end int64
	stripe    uint32
}

// gate is the engine's one admission and drain mechanism. Everything the
// engine runs — an Invoke registering its request, a chain of instances, a
// DLU daemon, a prewarm, the reaper, the governor — holds a count, entered
// and exited on one stripe. Shutdown closes the gate; enter is refused from
// then on, and add, for work a holder starts, needs no check.
type gate struct {
	started, finished obs.Counter
	closed            atomic.Bool
	wake              chan struct{} // one slot: an exit after the close wakes drain
}

func (g *gate) add(stripe uint32) { g.started.Inc(stripe) }

// enter counts, then checks; Shutdown closes, then counts: either drain sees
// the entry or the entry sees the close.
func (g *gate) enter(stripe uint32) bool {
	g.add(stripe)
	if g.closed.Load() {
		g.exit(stripe)
		return false
	}
	return true
}

func (g *gate) exit(stripe uint32) {
	g.finished.Inc(stripe)
	if g.closed.Load() {
		select {
		case g.wake <- struct{}{}:
		default: // a wake-up is pending, and drain recounts after it
		}
	}
}

// drain waits for an instant with nothing in flight. No lane's finished ever
// passes its started, since a count exits on the lane it entered, so sums
// read finished first and started second agree only if every lane was level
// at one instant between the two passes; nothing was running then to add
// work, and the closed gate has refused every enter since.
func (g *gate) drain() {
	for done := g.finished.Load(); g.started.Load() != done; done = g.finished.Load() {
		<-g.wake
	}
}

// instanceCap bounds a function's running instances (MaxContainersPerFn) with
// per-stripe quotas, a lane's word being quota<<32 | holders. An acquire
// within its lane's quota is one add on the request's stripe, and a release
// leaves the quota there. A lane that runs out takes half of every other
// lane's spare under mu, so quota follows the stripes that run the function
// and the shared words are touched only near the cap; with none spare the
// acquire parks, and a release that sees it parked hands over its slot.
type instanceCap struct {
	mu      sync.Mutex
	waiting atomic.Int64 // acquires parked or sweeping; every release reads it
	wake    chan struct{}
	_       [56]byte
	lanes   [obs.NumStripes]struct {
		w atomic.Int64
		_ [56]byte
	}
}

func spare(w int64) int64 { return w>>32 - int64(int32(w)) }

func (c *instanceCap) init(max int) {
	for i := range c.lanes {
		q := max / obs.NumStripes
		if i < max%obs.NumStripes {
			q++
		}
		c.lanes[i].w.Store(int64(q) << 32)
	}
	c.wake = make(chan struct{})
}

// acquire takes a slot on stripe's lane and reports whether it parked.
func (c *instanceCap) acquire(stripe uint32) (parked bool) {
	l := &c.lanes[stripe%obs.NumStripes].w
	if spare(l.Add(1)) >= 0 {
		return false
	}
	l.Add(-1)
	c.mu.Lock()
	c.waiting.Add(1) // before the sweep: a release freeing a slot after it sees this
	var got int64
	for i := range c.lanes {
		for v := &c.lanes[i].w; v != l; {
			w := v.Load()
			k := (spare(w) + 1) / 2
			if k <= 0 || v.CompareAndSwap(w, w-k<<32) {
				got += max(k, 0)
				break
			}
		}
	}
	if spare(l.Add(got<<32+1)) >= 0 {
		c.waiting.Add(-1)
		c.mu.Unlock()
		return false
	}
	l.Add(-1)
	c.mu.Unlock()
	<-c.wake
	l.Add(1<<32 + 1)
	return true
}

// release frees a slot on stripe's lane and reports whether it handed it to a
// parked acquire, which may have made it wait.
func (c *instanceCap) release(stripe uint32) (woke bool) {
	l := &c.lanes[stripe%obs.NumStripes].w
	l.Add(-1)
	if c.waiting.Load() == 0 {
		return false
	}
	c.mu.Lock()
	for {
		w := l.Load()
		if c.waiting.Load() == 0 || spare(w) <= 0 {
			c.mu.Unlock()
			return false
		}
		if l.CompareAndSwap(w, w-1<<32) {
			break
		}
	}
	c.waiting.Add(-1)
	c.mu.Unlock()
	c.wake <- struct{}{} // counted under mu: the acquire is at, or on its way to, the receive
	return true
}
