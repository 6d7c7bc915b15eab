//repolint:hotpath sink Land/Get/Consume run per data item; see the hotpath analyzer

// Package wmm implements the Wait-Match Memory: the per-node data sink of
// DataFlower's host-container collaborative communication mechanism (§7).
//
// The sink temporarily caches a function's input data before the function is
// triggered, indexed by the multi-level key (RequestID, FunctionName,
// DataName) to keep lookups cheap in a large sink. Two policies bound its
// memory footprint:
//
//   - Proactive release: every entry knows how many destination FLUs will
//     consume it; once the last consumer has fetched the data the entry is
//     dropped immediately (control-flow caches such as FaaSFlow can only
//     drop at request completion because they lack data-dependency
//     knowledge).
//   - Passive expire: entries carry a TTL; on expiry they are persisted to
//     the function-exclusive disk (modelled as a second tier) and evicted
//     from memory. A later Get is served from disk and reports it, so
//     callers can charge the slower access. An entry that was already fully
//     consumed when its TTL fires is dropped rather than spilled, and the
//     spill tier itself is reclaimed per request at completion, so neither
//     tier grows without bound in a long-running system.
//
// Internally the sink is sharded: the key is hashed across a power-of-two
// number of lock stripes. A stripe holds one index, map[Key]*entry, for both
// tiers — an entry's tier is a field, and a TTL spill flips it in place and
// moves its bytes from the memory gauge to the disk gauge; nothing is
// re-indexed. The entries of one request on a stripe are chained through the
// entries themselves, so ReleaseRequest walks only that request's entries.
// Each stripe keeps a min-heap of expiry times in which every entry records
// its slot, so an entry that leaves early (consumed, replaced, released) is
// taken out on the spot. The bookkeeping invariants, checked after every
// step of the model test (checkSink):
//
//   - every indexed entry is on exactly its request's chain on its own
//     stripe, and every chained entry is indexed;
//   - the expiry heap holds exactly the memory-tier entries that carry a
//     TTL, each at its recorded slot — never a dead reference, so nothing
//     it holds can pin a released payload;
//   - the per-stripe and global byte gauges equal the per-tier size sums.
//
// Put and Get lock exactly one stripe and pop only the entries whose TTL
// has actually fired (O(log n) each), so there is no O(all-entries) sweep
// and no single serialization point on the hot path under concurrent
// invocations. Aggregate readers (Stats, MemIntegralMBs, byte gauges) merge
// the per-shard state; per-stripe integrals sum linearly and the global
// byte total and peak are maintained atomically. Expiry is applied lazily —
// on each stripe's own accesses, on every ReleaseRequest and ExpireSweep
// (which visit all stripes), and at MemIntegralMBs reads — so a past-TTL
// entry on a quiet stripe is charged to the memory tier for at most the gap
// between requests, not until its stripe happens to be touched again.
//
// Timestamps are explicit time.Duration values so the same implementation
// serves both the wall-clock runtime plane and the virtual-time simulation
// plane. The sink is safe for concurrent use.
package wmm

import (
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
)

// Key is the multi-level index of one datum.
type Key struct {
	ReqID string
	Fn    string // destination function
	Data  string // data name (input slot, possibly instance-qualified)
}

// Tier identifies where a Get was served from.
type Tier int

// Tiers.
const (
	Miss Tier = iota
	Memory
	Disk
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case Memory:
		return "memory"
	case Disk:
		return "disk"
	default:
		return "miss"
	}
}

// DefaultShards is the lock-stripe count used when Options.Shards is zero.
const DefaultShards = 32

// Options configures a Sink.
type Options struct {
	// TTL is the passive-expire timeout. Zero disables passive expiry.
	TTL time.Duration
	// DisableProactive turns off proactive release (for ablations).
	DisableProactive bool
	// Shards is the number of lock stripes the key space is hashed across,
	// rounded up to a power of two (DefaultShards when 0).
	Shards int
}

// Stats are cumulative sink counters.
type Stats struct {
	Puts              int64
	MemHits           int64
	DiskHits          int64
	Misses            int64
	ProactiveReleases int64
	Expirations       int64
	PeakMemBytes      int64
}

// Merge adds other's counters into s, taking the larger peak. It aggregates
// sinks of different nodes; within one sink Stats already merges the shards.
func (s *Stats) Merge(other Stats) {
	s.Puts += other.Puts
	s.MemHits += other.MemHits
	s.DiskHits += other.DiskHits
	s.Misses += other.Misses
	s.ProactiveReleases += other.ProactiveReleases
	s.Expirations += other.Expirations
	if other.PeakMemBytes > s.PeakMemBytes {
		s.PeakMemBytes = other.PeakMemBytes
	}
}

// Sink is one node's Wait-Match Memory plus its spill tier.
type Sink struct {
	opts   Options
	mask   uint32
	shards []shard

	memBytes  atomic.Int64
	diskBytes atomic.Int64
	peakMem   atomic.Int64
}

// NewSink returns an empty sink.
func NewSink(opts Options) *Sink {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Sink{opts: opts, mask: uint32(size - 1), shards: make([]shard, size)}
	for i := range s.shards {
		s.shards[i].init()
		s.shards[i].obsStripe = uint32(i)
	}
	return s
}

// Put caches v for key at virtual/wall time at. consumers is the number of
// destination FLUs that will fetch the datum (>=1); once they all have, the
// entry is proactively released. Re-putting an existing key replaces it.
func (s *Sink) Put(at time.Duration, key Key, v dataflow.Value, consumers int) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.expireLocked(sh, at)
	s.putLocked(sh, at, key, v, consumers)
}

// putLocked is Put's body once the stripe lock is held and pending
// expirations have been applied; PutBatch amortizes the lock acquisition
// and expiry pass over many keys on the same stripe. Caller holds sh.mu.
func (s *Sink) putLocked(sh *shard, at time.Duration, key Key, v dataflow.Value, consumers int) {
	if consumers < 1 {
		consumers = 1
	}
	sh.stats.Puts++
	obsPuts.Inc(sh.obsStripe)
	// A previous value for the key is superseded whichever tier it is in:
	// dropping it first takes its bytes off that tier's gauge.
	if old := sh.entries[key]; old != nil {
		s.drop(sh, at, old)
	}
	e := sh.insert(key, v, consumers)
	if s.opts.TTL > 0 {
		e.expiresAt = at + s.opts.TTL
		sh.ttl.push(e)
	}
	s.adjustMem(sh, at, v.Size)
}

// PutReq is one datum of a PutBatch.
type PutReq struct {
	Key       Key
	Val       dataflow.Value
	Consumers int
}

// PutBatch caches every req at time at — the multi-put half of the DLU
// shipment batcher. Keys are grouped by lock stripe and each stripe is
// locked exactly once for all of its keys, paying one lock acquisition and
// one expiry pass where per-item Puts pay one of each per key. Equivalent
// to calling Put for every req: stripes are independent, and within a
// stripe the batch's order is preserved.
func (s *Sink) PutBatch(at time.Duration, reqs []PutReq) {
	if len(reqs) == 0 {
		return
	}
	// Precompute stripe indices; typical DLU batches fit the stack scratch.
	var inline [64]uint32
	var idx []uint32
	if len(reqs) <= len(inline) {
		idx = inline[:len(reqs)]
	} else {
		idx = make([]uint32, len(reqs))
	}
	for i := range reqs {
		idx[i] = s.shardIdx(reqs[i].Key)
	}
	const claimed = ^uint32(0) // never a stripe index (mask < 2^31)
	for i := range reqs {
		si := idx[i]
		if si == claimed {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		s.expireLocked(sh, at)
		for j := i; j < len(reqs); j++ {
			if idx[j] != si {
				continue
			}
			idx[j] = claimed
			s.putLocked(sh, at, reqs[j].Key, reqs[j].Val, reqs[j].Consumers)
		}
		sh.mu.Unlock()
	}
}

// Get fetches the datum for key, counting one consumer. It returns the
// value, the tier it was served from, and whether it was found.
func (s *Sink) Get(at time.Duration, key Key) (dataflow.Value, Tier, bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.expireLocked(sh, at)
	e := sh.entries[key]
	if e == nil {
		sh.stats.Misses++
		obsMisses.Inc(sh.obsStripe)
		return dataflow.Value{}, Miss, false
	}
	val, tier := e.val, e.tier
	if tier == Memory {
		sh.stats.MemHits++
		obsMemHits.Inc(sh.obsStripe)
	} else {
		sh.stats.DiskHits++
		obsDiskHits.Inc(sh.obsStripe)
	}
	e.remaining--
	if e.remaining > 0 || s.opts.DisableProactive {
		return val, tier, true
	}
	if tier == Memory { // a spilled entry's release is not a proactive one
		sh.stats.ProactiveReleases++
		obsProactive.Inc(sh.obsStripe)
	}
	s.drop(sh, at, e)
	return val, tier, true
}

// ReleaseRequest drops every entry of a request from both tiers (end-of-
// request cleanup: core's request teardown drives it through the transport
// as the spill tier's GC, and the sim plane calls it when a request ends).
// Cost is O(shards + entries of the request): each stripe chains a
// request's entries, so other requests' entries are never scanned.
func (s *Sink) ReleaseRequest(at time.Duration, reqID string) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		// Since we're visiting every stripe anyway, apply pending
		// expirations: this bounds how long a past-TTL entry on a quiet
		// shard can stay charged to the memory tier by the inter-request
		// gap (sink-wide), not by that shard's own access gap.
		s.expireLocked(sh, at)
		for e := sh.reqs[reqID]; e != nil; {
			next := e.next
			s.drop(sh, at, e)
			e = next
		}
		sh.mu.Unlock()
	}
}

// Clear wipes both tiers of the sink — the data loss of a node failure.
// Counters (Stats) survive as the node's cumulative history; occupancy
// gauges and integrals record the drop at time at. The sink remains usable
// afterwards (a recovered node restarts with an empty Wait-Match Memory).
func (s *Sink) Clear(at time.Duration) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			s.drop(sh, at, e)
		}
		sh.mu.Unlock()
	}
}

// ExpireSweep runs the passive-expire policy on every shard at time at and
// returns how many entries expired (spilled to disk or, when already fully
// consumed, dropped).
//
//repolint:testseam the reference model and fuzz tests step expiry at chosen instants
func (s *Sink) ExpireSweep(at time.Duration) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += s.expireLocked(sh, at)
		sh.mu.Unlock()
	}
	return n
}

// MemBytes returns current memory-tier occupancy in bytes.
func (s *Sink) MemBytes() int64 { return s.memBytes.Load() }

// DiskBytes returns current spill-tier occupancy in bytes.
func (s *Sink) DiskBytes() int64 { return s.diskBytes.Load() }

// MemIntegralMBs returns the memory occupancy integral in MB·s up to at.
// Pending expirations are applied first so entries past their TTL are
// charged to the spill tier, then the per-shard integrals (which sum
// exactly to the whole-sink integral) are extended to at and merged.
func (s *Sink) MemIntegralMBs(at time.Duration) float64 {
	total := 0.0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		s.expireLocked(sh, at)
		total += sh.memInt.Finish(at)
		sh.mu.Unlock()
	}
	return total
}

// Stats returns a snapshot of the counters, merged across shards.
func (s *Sink) Stats() Stats {
	var out Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out.Merge(sh.stats)
		sh.mu.Unlock()
	}
	out.PeakMemBytes = s.peakMem.Load()
	return out
}
