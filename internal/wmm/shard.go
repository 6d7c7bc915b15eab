//repolint:hotpath sink shard ops run per data item; see the hotpath analyzer
package wmm

import (
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
)

// entry is one cached datum. It sits in exactly one stripe's index and on
// that stripe's chain for its request from Put until drop; tier says which
// byte gauge it is charged to, slot where the expiry heap holds it.
type entry struct {
	key        Key
	val        dataflow.Value
	remaining  int // consumers still to fetch
	expiresAt  time.Duration
	tier       Tier   // Memory or Disk; a TTL spill flips it in place
	slot       int    // index in the stripe's expiry heap, -1 when not queued
	next, prev *entry // the other entries of key.ReqID on this stripe
}

// expiryHeap is a min-heap by expiry time of exactly the memory-tier entries
// that carry a TTL. Every entry records its slot, so one that leaves early
// (consumed, replaced, released) is taken out on the spot in O(log n) and
// the heap never holds a dead reference. Hand-rolled rather than
// container/heap: push and remove run on the Put/Get hot path and the
// interface indirection is measurable there.
type expiryHeap []*entry

func (h expiryHeap) set(i int, e *entry) {
	h[i] = e
	e.slot = i
}

// up and down sift the entry at slot i towards the root / the leaves.
func (h expiryHeap) up(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].expiresAt <= e.expiresAt {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, e)
}

func (h expiryHeap) down(i int) {
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].expiresAt < h[c].expiresAt {
			c++
		}
		if e.expiresAt <= h[c].expiresAt {
			break
		}
		h.set(i, h[c])
		i = c
	}
	h.set(i, e)
}

func (h *expiryHeap) push(e *entry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// remove takes the entry at slot i out of the heap (i == 0 is the pop).
func (h *expiryHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	q[i].slot = -1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if i < n {
		q.set(i, last)
		q.down(i)
		q.up(last.slot)
	}
}

// shard is one lock stripe of the sink: a slice of the key space with its
// own index, expiry heap, counters and occupancy integral. Aggregate
// readers merge the per-shard state; the hot path touches exactly one
// shard.
type shard struct {
	mu sync.Mutex
	// entries indexes both tiers; reqs heads each request's chain through
	// entry.next/prev, so ReleaseRequest walks only that request's entries.
	entries map[Key]*entry
	reqs    map[string]*entry
	ttl     expiryHeap

	// freeEnts recycles entry records, the hot-path allocation of a Put.
	// All reuse happens under sh.mu. Bounded so a burst's worth of garbage
	// does not stay pinned forever.
	freeEnts []*entry

	// stats holds this stripe's counters; PeakMemBytes is tracked globally
	// on the Sink (per-shard peaks at different times do not sum to the
	// true peak) and filled in when Stats merges the shards.
	stats    Stats
	memBytes int64
	memInt   obs.Integral // MB·s of this stripe's memory occupancy

	// obsStripe is this shard's lane in the process-wide striped obs
	// counters (obs.go); set once at NewSink so hot-path updates never
	// contend across shards.
	obsStripe uint32
}

// freeEntCap bounds the free list: enough to absorb a steady-state invoke
// storm's churn, small enough that an idle shard pins only a few KB.
const freeEntCap = 256

func (sh *shard) init() {
	sh.entries = make(map[Key]*entry)
	sh.reqs = make(map[string]*entry)
}

// insert indexes a new memory-tier entry {key, val, consumers} and chains it
// to its request, reusing a recycled record when one is available. The
// caller has dropped any previous entry for key and holds sh.mu.
func (sh *shard) insert(key Key, v dataflow.Value, consumers int) *entry {
	var e *entry
	if n := len(sh.freeEnts); n > 0 {
		e = sh.freeEnts[n-1]
		sh.freeEnts[n-1] = nil
		sh.freeEnts = sh.freeEnts[:n-1]
	} else {
		e = new(entry)
	}
	*e = entry{key: key, val: v, remaining: consumers, tier: Memory, slot: -1}
	if head := sh.reqs[key.ReqID]; head != nil {
		e.next, head.prev = head, e
	}
	sh.reqs[key.ReqID] = e
	sh.entries[key] = e
	return e
}

// drop removes e from the stripe — index, request chain and, if it is still
// queued, the expiry heap — settles the byte gauge of the tier it was in and
// recycles the record, which nothing references any more. Caller holds
// sh.mu.
func (s *Sink) drop(sh *shard, at time.Duration, e *entry) {
	delete(sh.entries, e.key)
	switch {
	case e.prev != nil:
		e.prev.next = e.next
	case e.next != nil:
		sh.reqs[e.key.ReqID] = e.next
	default:
		delete(sh.reqs, e.key.ReqID)
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if e.slot >= 0 {
		sh.ttl.remove(e.slot)
	}
	if e.tier == Memory {
		s.adjustMem(sh, at, -e.val.Size)
	} else {
		s.diskBytes.Add(-e.val.Size)
	}
	if len(sh.freeEnts) < freeEntCap {
		*e = entry{}
		sh.freeEnts = append(sh.freeEnts, e)
	}
}

// expireLocked pops the TTL-exceeded entries off the shard's heap and moves
// each to the spill tier by flipping its tier (or drops it outright when it
// is already fully consumed). O(log n) per expired entry; O(1) when nothing
// has expired. Caller holds sh.mu.
func (s *Sink) expireLocked(sh *shard, at time.Duration) int {
	n := 0
	for len(sh.ttl) > 0 && sh.ttl[0].expiresAt <= at {
		e := sh.ttl[0]
		sh.ttl.remove(0)
		sh.stats.Expirations++
		obsExpired.Inc(sh.obsStripe)
		n++
		if e.remaining <= 0 {
			// Fully consumed (possible only with DisableProactive): no
			// consumer will return for it, so spilling would leak the bytes
			// on disk until request teardown — drop it instead.
			s.drop(sh, at, e)
			continue
		}
		s.adjustMem(sh, at, -e.val.Size)
		e.tier = Disk
		s.diskBytes.Add(e.val.Size)
	}
	return n
}

// adjustMem applies a memory-tier byte delta to the shard's occupancy
// integral and the sink's global counters. The global total is atomic, so
// the peak observed through the CAS loop is the exact peak of the whole
// sink, not a sum of unsynchronized per-shard peaks. Caller holds sh.mu.
func (s *Sink) adjustMem(sh *shard, at time.Duration, delta int64) {
	sh.memBytes += delta
	sh.memInt.Set(at, float64(sh.memBytes)/(1<<20))
	total := s.memBytes.Add(delta)
	for {
		peak := s.peakMem.Load()
		if total <= peak || s.peakMem.CompareAndSwap(peak, total) {
			return
		}
	}
}

// fnv32a seeds the key hash (FNV-1a).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnvMix folds one key component into h, terminated so that component
// boundaries are unambiguous.
func fnvMix(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	h ^= 0xff
	h *= fnvPrime32
	return h
}

// shardIdx maps the multi-level key onto its lock-stripe index.
func (s *Sink) shardIdx(key Key) uint32 {
	h := fnvMix(fnvOffset32, key.ReqID)
	h = fnvMix(h, key.Fn)
	h = fnvMix(h, key.Data)
	return h & s.mask
}

// shardOf maps the multi-level key onto its lock stripe.
func (s *Sink) shardOf(key Key) *shard {
	return &s.shards[s.shardIdx(key)]
}
