package wmm

import (
	"fmt"
	"testing"
	"time"
)

// sinkState is a comparable fingerprint of a sink's observable contents.
type sinkState struct {
	stats     Stats
	memBytes  int64
	diskBytes int64
	entries   int
}

func stateOf(s *Sink) sinkState {
	return sinkState{
		stats:     s.Stats(),
		memBytes:  s.MemBytes(),
		diskBytes: s.DiskBytes(),
		entries:   memEntries(s),
	}
}

// TestPutBatchEquivalentToSequentialPuts drives identical workloads through
// Put and PutBatch — including same-batch key collisions, TTL expiry and
// cross-stripe spread — and requires the observable sink state and every
// subsequent Get to match.
func TestPutBatchEquivalentToSequentialPuts(t *testing.T) {
	for _, opts := range []Options{
		{},
		{TTL: 10 * time.Millisecond},
		{Shards: 4, TTL: 10 * time.Millisecond},
	} {
		seq := newSink(t, opts)
		bat := newSink(t, opts)
		var reqs []PutReq
		for i := 0; i < 100; i++ {
			key := k(fmt.Sprintf("r%d", i%7), fmt.Sprintf("f%d", i%5), fmt.Sprintf("d%d", i))
			reqs = append(reqs, PutReq{Key: key, Val: v(int64(10 + i)), Consumers: 1 + i%3})
		}
		// A same-batch duplicate: last write must win, like sequential Puts.
		reqs = append(reqs, PutReq{Key: reqs[0].Key, Val: v(999), Consumers: 1})
		for _, r := range reqs {
			seq.Put(0, r.Key, r.Val, r.Consumers)
		}
		bat.PutBatch(0, reqs)
		if a, b := stateOf(seq), stateOf(bat); a != b {
			t.Fatalf("opts %+v: state after puts diverged:\nseq   %+v\nbatch %+v", opts, a, b)
		}
		// Cross the TTL, then re-put half the keys batched vs sequential:
		// both must apply the same expirations first.
		later := 20 * time.Millisecond
		for _, r := range reqs[:50] {
			seq.Put(later, r.Key, r.Val, r.Consumers)
		}
		bat.PutBatch(later, reqs[:50])
		if a, b := stateOf(seq), stateOf(bat); a != b {
			t.Fatalf("opts %+v: state after TTL re-put diverged:\nseq   %+v\nbatch %+v", opts, a, b)
		}
		for _, r := range reqs {
			gs, ts, oks := seq.Get(later, r.Key)
			gb, tb, okb := bat.Get(later, r.Key)
			if !sameValue(gs, gb) || ts != tb || oks != okb {
				t.Fatalf("opts %+v: Get(%v) diverged: seq (%v,%v,%v) batch (%v,%v,%v)",
					opts, r.Key, gs, ts, oks, gb, tb, okb)
			}
		}
	}
}

func TestPutBatchEmptyAndSingleton(t *testing.T) {
	s := newSink(t, Options{})
	s.PutBatch(0, nil)
	s.PutBatch(0, []PutReq{})
	if s.Stats().Puts != 0 {
		t.Fatalf("empty batches recorded puts: %+v", s.Stats())
	}
	s.PutBatch(0, []PutReq{{Key: k("r1", "f", "x"), Val: v(7), Consumers: 0}})
	// Consumers < 1 is clamped to 1, like Put.
	if got, _, ok := s.Get(0, k("r1", "f", "x")); !ok || got.Size != 7 {
		t.Fatalf("singleton batch not served: %v %v", got, ok)
	}
	if memEntries(s) != 0 {
		t.Fatal("clamped single consumer did not proactively release")
	}
}

// TestPutBatchLargerThanScratch exercises the heap-spill path for batches
// beyond the inline index scratch (64 entries).
func TestPutBatchLargerThanScratch(t *testing.T) {
	s := newSink(t, Options{Shards: 2})
	var reqs []PutReq
	for i := 0; i < 300; i++ {
		reqs = append(reqs, PutReq{Key: k("r1", "f", fmt.Sprintf("d%d", i)), Val: v(1), Consumers: 1})
	}
	s.PutBatch(0, reqs)
	if got := memEntries(s); got != 300 {
		t.Fatalf("len = %d, want 300", got)
	}
	if got := s.MemBytes(); got != 300 {
		t.Fatalf("mem = %d, want 300", got)
	}
}

// TestFreeListRecyclesEntries pins the free-list behaviour: a put/get churn
// on one shard reuses entry records instead of allocating, and recycled
// entries never resurrect stale data.
func TestFreeListRecyclesEntries(t *testing.T) {
	s := newSink(t, Options{Shards: 1})
	key := k("r1", "f", "x")
	for i := 0; i < 1000; i++ {
		s.Put(0, key, v(int64(i+1)), 1)
		got, _, ok := s.Get(0, key)
		if !ok || got.Size != int64(i+1) {
			t.Fatalf("iter %d: got %v %v", i, got, ok)
		}
		if _, _, ok := s.Get(0, key); ok {
			t.Fatalf("iter %d: released entry still served", i)
		}
	}
	sh := &s.shards[0]
	sh.mu.Lock()
	free := len(sh.freeEnts)
	sh.mu.Unlock()
	if free == 0 {
		t.Fatal("churn left no recycled entries on the free list")
	}
	if free > freeEntCap {
		t.Fatalf("free list overgrew its cap: %d > %d", free, freeEntCap)
	}
}

// TestFreeListSafeAcrossTTLSkeletons churns TTL'd entries that are consumed
// long before their expiry fires: a record is recycled the moment it is
// dropped, so it must have left the expiry heap by then — a reused record
// still queued under its old expiry would spill the wrong datum.
func TestFreeListSafeAcrossTTLSkeletons(t *testing.T) {
	s := newSink(t, Options{Shards: 1, TTL: time.Millisecond})
	at := time.Duration(0)
	for i := 0; i < 500; i++ {
		key := k("r1", "f", fmt.Sprintf("d%d", i%3))
		s.Put(at, key, v(10), 1)
		if got, _, ok := s.Get(at, key); !ok || got.Size != 10 {
			t.Fatalf("iter %d: got %v %v", i, got, ok)
		}
		at += 100 * time.Microsecond // every ~10 iters crosses the TTL
	}
	// Everything was consumed before its TTL; nothing may be left in either
	// tier once every TTL of the run has passed.
	s.ExpireSweep(at + time.Second)
	if memEntries(s) != 0 || s.DiskBytes() != 0 {
		t.Fatalf("len=%d disk=%d after full consumption", memEntries(s), s.DiskBytes())
	}
	if got, _, ok := s.Get(at, k("r1", "f", "d0")); ok {
		t.Fatalf("recycled record resurrected %v", got)
	} else if got.Size != 0 || got.Payload != nil {
		t.Fatalf("miss returned non-zero value %v", got)
	}
}

// BenchmarkPutBatch compares batched against per-item puts on the
// steady-state churn the DLU daemon generates.
func BenchmarkPutBatch(b *testing.B) {
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			s := NewSink(Options{})
			reqs := make([]PutReq, size)
			for j := range reqs {
				reqs[j] = PutReq{
					Key:       k("r1", "f", fmt.Sprintf("d%d", j)),
					Val:       v(64),
					Consumers: 1,
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.PutBatch(0, reqs)
				for j := range reqs {
					s.Get(0, reqs[j].Key)
				}
			}
		})
	}
}
