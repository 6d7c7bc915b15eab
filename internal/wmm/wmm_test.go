package wmm

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dataflow"
)

// v is a value of size bytes whose payload spells the size, so a test can
// tell values apart by payload as well.
// memEntries counts the sink's memory-tier entries.
func memEntries(s *Sink) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.tier == Memory {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

func v(size int64) dataflow.Value {
	return dataflow.Value{Size: size, Payload: strconv.AppendInt(nil, size, 10)}
}

// sameValue reports whether two values carry the same size and bytes.
func sameValue(a, b dataflow.Value) bool {
	return a.Size == b.Size && bytes.Equal(a.Payload, b.Payload)
}

func k(req, fn, data string) Key { return Key{ReqID: req, Fn: fn, Data: data} }

func TestPutGetMemory(t *testing.T) {
	s := newSink(t, Options{})
	s.Put(0, k("r1", "f", "x"), v(100), 1)
	got, tier, ok := s.Get(time.Second, k("r1", "f", "x"))
	if !ok || tier != Memory || got.Size != 100 {
		t.Fatalf("get = %v %v %v", got, tier, ok)
	}
}

func TestGetMiss(t *testing.T) {
	s := newSink(t, Options{})
	_, tier, ok := s.Get(0, k("r1", "f", "x"))
	if ok || tier != Miss {
		t.Fatalf("expected miss, got %v %v", tier, ok)
	}
	if s.Stats().Misses != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestProactiveReleaseSingleConsumer(t *testing.T) {
	s := newSink(t, Options{})
	s.Put(0, k("r1", "f", "x"), v(100), 1)
	if s.MemBytes() != 100 {
		t.Fatalf("mem = %d", s.MemBytes())
	}
	s.Get(0, k("r1", "f", "x"))
	if s.MemBytes() != 0 {
		t.Fatalf("mem = %d after last consumer", s.MemBytes())
	}
	if memEntries(s) != 0 {
		t.Fatal("entry not released")
	}
	if s.Stats().ProactiveReleases != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	// Second get misses: the data is gone.
	if _, _, ok := s.Get(0, k("r1", "f", "x")); ok {
		t.Fatal("released entry still served")
	}
}

func TestProactiveReleaseMultiConsumer(t *testing.T) {
	s := newSink(t, Options{})
	s.Put(0, k("r1", "f", "x"), v(100), 3)
	for i := 0; i < 2; i++ {
		if _, _, ok := s.Get(0, k("r1", "f", "x")); !ok {
			t.Fatalf("consumer %d missed", i)
		}
		if s.MemBytes() != 100 {
			t.Fatalf("released before last consumer (mem=%d)", s.MemBytes())
		}
	}
	s.Get(0, k("r1", "f", "x"))
	if s.MemBytes() != 0 {
		t.Fatal("not released after last consumer")
	}
}

func TestDisableProactive(t *testing.T) {
	s := newSink(t, Options{DisableProactive: true})
	s.Put(0, k("r1", "f", "x"), v(100), 1)
	s.Get(0, k("r1", "f", "x"))
	if s.MemBytes() != 100 {
		t.Fatal("proactive release ran despite being disabled")
	}
	s.ReleaseRequest(time.Second, "r1")
	if s.MemBytes() != 0 {
		t.Fatal("ReleaseRequest did not clean up")
	}
}

func TestPassiveExpireSpillsToDisk(t *testing.T) {
	s := newSink(t, Options{TTL: 10 * time.Second})
	s.Put(0, k("r1", "f", "x"), v(100), 1)
	s.ExpireSweep(5 * time.Second)
	if s.MemBytes() != 100 || s.DiskBytes() != 0 {
		t.Fatal("expired before TTL")
	}
	n := s.ExpireSweep(10 * time.Second)
	if n != 1 || s.MemBytes() != 0 || s.DiskBytes() != 100 {
		t.Fatalf("expire: n=%d mem=%d disk=%d", n, s.MemBytes(), s.DiskBytes())
	}
	got, tier, ok := s.Get(11*time.Second, k("r1", "f", "x"))
	if !ok || tier != Disk || got.Size != 100 {
		t.Fatalf("disk get = %v %v %v", got, tier, ok)
	}
	if s.DiskBytes() != 0 {
		t.Fatal("disk entry not released after last consumer")
	}
}

func TestExpireRunsLazilyOnAccess(t *testing.T) {
	s := newSink(t, Options{TTL: time.Second})
	s.Put(0, k("r1", "f", "x"), v(50), 2)
	// No explicit sweep: the access itself applies the pending expiry, so a
	// late consumer is served from the spill tier and charged accordingly.
	got, tier, ok := s.Get(time.Minute, k("r1", "f", "x"))
	if !ok || tier != Disk || got.Size != 50 {
		t.Fatalf("get = %v %v %v, want disk hit", got, tier, ok)
	}
	if s.DiskBytes() != 50 || s.MemBytes() != 0 {
		t.Fatalf("disk = %d mem = %d, want 50/0 (x spilled)", s.DiskBytes(), s.MemBytes())
	}
}

func TestNoTTLNeverExpires(t *testing.T) {
	s := newSink(t, Options{})
	s.Put(0, k("r1", "f", "x"), v(50), 1)
	s.ExpireSweep(time.Hour)
	if s.MemBytes() != 50 || s.DiskBytes() != 0 {
		t.Fatal("entry expired without a TTL")
	}
}

func TestReleaseRequestDropsBothTiers(t *testing.T) {
	s := newSink(t, Options{TTL: time.Second})
	s.Put(0, k("r1", "f", "x"), v(50), 1)
	s.Put(0, k("r2", "f", "x"), v(70), 1)
	s.ExpireSweep(2 * time.Second) // both spill
	s.Put(3*time.Second, k("r1", "f", "y"), v(20), 1)
	s.ReleaseRequest(4*time.Second, "r1")
	if s.DiskBytes() != 70 {
		t.Fatalf("disk = %d, want only r2's 70", s.DiskBytes())
	}
	if s.MemBytes() != 0 {
		t.Fatalf("mem = %d", s.MemBytes())
	}
}

// Regression: spilled entries must leave the disk tier once the last
// consumer has fetched them — diskBytes returns to 0 with no explicit
// sweep or request teardown needed.
func TestDiskReleasedAfterAllConsumersFetch(t *testing.T) {
	s := newSink(t, Options{TTL: time.Second})
	s.Put(0, k("r1", "f", "x"), v(100), 3)
	if n := s.ExpireSweep(2 * time.Second); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if s.DiskBytes() != 100 {
		t.Fatalf("disk = %d, want 100", s.DiskBytes())
	}
	for i := 0; i < 3; i++ {
		_, tier, ok := s.Get(3*time.Second, k("r1", "f", "x"))
		if !ok || tier != Disk {
			t.Fatalf("consumer %d: tier=%v ok=%v", i, tier, ok)
		}
	}
	if s.DiskBytes() != 0 {
		t.Fatalf("disk = %d after all consumers fetched, want 0", s.DiskBytes())
	}
}

// Regression: with DisableProactive a fully-consumed memory entry used to be
// spilled at expiry and then sit on disk until request teardown — in a
// long-running system that never tears the request down, the spill tier grew
// without bound. Such entries are dropped at expiry instead.
func TestFullyConsumedEntryDroppedAtExpiry(t *testing.T) {
	s := newSink(t, Options{TTL: time.Second, DisableProactive: true})
	s.Put(0, k("r1", "f", "x"), v(100), 1)
	s.Get(0, k("r1", "f", "x")) // last consumer; entry stays (proactive off)
	if s.MemBytes() != 100 {
		t.Fatalf("mem = %d, want entry retained under DisableProactive", s.MemBytes())
	}
	if n := s.ExpireSweep(2 * time.Second); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if s.MemBytes() != 0 || s.DiskBytes() != 0 {
		t.Fatalf("mem = %d disk = %d after expiry of consumed entry, want 0/0",
			s.MemBytes(), s.DiskBytes())
	}
	// A not-yet-consumed entry still spills normally.
	s.Put(3*time.Second, k("r1", "f", "y"), v(40), 1)
	s.ExpireSweep(5 * time.Second)
	if s.DiskBytes() != 40 {
		t.Fatalf("disk = %d, want unconsumed entry spilled", s.DiskBytes())
	}
	s.ReleaseRequest(6*time.Second, "r1")
	if s.DiskBytes() != 0 {
		t.Fatalf("disk = %d after ReleaseRequest, want 0", s.DiskBytes())
	}
}

// Regression: re-putting a key must supersede a TTL-spilled disk copy as
// well, or the stale value stays servable from disk (and double-counted)
// after the fresh one is consumed.
func TestPutSupersedesSpilledCopy(t *testing.T) {
	s := newSink(t, Options{TTL: time.Second})
	s.Put(0, k("r1", "f", "x"), v(100), 1)
	s.ExpireSweep(2 * time.Second) // v1 spills to disk
	s.Put(3*time.Second, k("r1", "f", "x"), v(60), 1)
	if s.DiskBytes() != 0 {
		t.Fatalf("disk = %d after re-put, want stale copy dropped", s.DiskBytes())
	}
	got, tier, ok := s.Get(3*time.Second, k("r1", "f", "x"))
	if !ok || tier != Memory || got.Size != 60 {
		t.Fatalf("get = %v %v %v, want fresh 60B from memory", got, tier, ok)
	}
	if _, _, ok := s.Get(3*time.Second, k("r1", "f", "x")); ok {
		t.Fatal("released key still served (stale disk copy survived)")
	}
}

// Regression: an entry that leaves the index early must not stay referenced
// by the expiry heap until its TTL fires (with a 60s TTL and fast consumers,
// payloads pinned that way would dwarf the reported MemBytes). The heap is
// exact: consumed, replaced and released entries leave it on the spot, so
// after this sequence it holds nothing that could pin a payload.
func TestReleasedEntryPayloadUnpinned(t *testing.T) {
	s := newSink(t, Options{TTL: time.Hour, Shards: 1})
	payload := make([]byte, 1024)
	key := k("r1", "f", "x")
	s.Put(0, key, dataflow.Value{Size: 1024, Payload: payload}, 1)
	s.Get(0, key) // proactive release
	s.Put(0, k("r1", "f", "y"), dataflow.Value{Size: 8, Payload: payload}, 1)
	s.Put(0, k("r1", "f", "y"), dataflow.Value{Size: 8}, 1) // replace
	s.ReleaseRequest(0, "r1")                               // drops y
	if n := len(s.shards[0].ttl); n != 0 {
		t.Fatalf("heap holds %d entries, want 0", n)
	}
}

// Regression: entries consumed long before their TTL must not accumulate in
// the expiry heap for the whole TTL window — after 200 put/get rounds it
// holds exactly the one live entry.
func TestHeapCompactionBoundsStaleSkeletons(t *testing.T) {
	s := newSink(t, Options{TTL: time.Hour, Shards: 1})
	for i := 0; i < 200; i++ {
		key := k("r", "f", fmt.Sprintf("d%d", i))
		s.Put(0, key, v(8), 1)
		s.Get(0, key) // consumed immediately
	}
	s.Put(0, k("r", "f", "fresh"), v(8), 1)
	if n := len(s.shards[0].ttl); n != 1 {
		t.Fatalf("heap holds %d entries, want exactly the live one", n)
	}
}

func TestShardsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {2, 2}, {5, 8}, {32, 32}, {33, 64},
	} {
		if got := len(newSink(t, Options{Shards: tc.in}).shards); got != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestReplacePutAdjustsAccounting(t *testing.T) {
	s := newSink(t, Options{})
	s.Put(0, k("r1", "f", "x"), v(100), 1)
	s.Put(0, k("r1", "f", "x"), v(30), 1)
	if s.MemBytes() != 30 {
		t.Fatalf("mem = %d, want 30", s.MemBytes())
	}
}

func TestMemIntegral(t *testing.T) {
	s := newSink(t, Options{})
	s.Put(0, k("r1", "f", "x"), v(1<<20), 1) // 1 MB
	s.Get(10*time.Second, k("r1", "f", "x"))
	got := s.MemIntegralMBs(10 * time.Second)
	if got < 9.9 || got > 10.1 {
		t.Fatalf("integral = %v MB·s, want ~10", got)
	}
}

func TestPeakTracking(t *testing.T) {
	s := newSink(t, Options{})
	s.Put(0, k("r1", "f", "a"), v(100), 1)
	s.Put(0, k("r1", "f", "b"), v(200), 1)
	s.Get(0, k("r1", "f", "a"))
	s.Get(0, k("r1", "f", "b"))
	if s.Stats().PeakMemBytes != 300 {
		t.Fatalf("peak = %d, want 300", s.Stats().PeakMemBytes)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := newSink(t, Options{TTL: time.Minute})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := k(fmt.Sprintf("r%d", g), "f", fmt.Sprintf("d%d", i))
				s.Put(time.Duration(i)*time.Millisecond, key, v(10), 1)
				if _, _, ok := s.Get(time.Duration(i)*time.Millisecond, key); !ok {
					t.Errorf("lost own datum %v", key)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.MemBytes() != 0 {
		t.Fatalf("mem = %d after all consumed", s.MemBytes())
	}
}

// Property: memory accounting is exact — after any interleaving of puts and
// full consumption, MemBytes returns to zero and never goes negative.
func TestAccountingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := newSink(t, Options{})
		at := time.Duration(0)
		for i, sz := range sizes {
			key := k("r", "f", fmt.Sprintf("d%d", i))
			s.Put(at, key, v(int64(sz)+1), 1)
			if s.MemBytes() < 0 {
				return false
			}
			at += time.Millisecond
		}
		for i := range sizes {
			key := k("r", "f", fmt.Sprintf("d%d", i))
			if _, _, ok := s.Get(at, key); !ok {
				return false
			}
		}
		return s.MemBytes() == 0 && memEntries(s) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a TTL, every entry is eventually either consumed from
// memory, or spilled and then consumable from disk — data is never lost.
func TestNoDataLossProperty(t *testing.T) {
	f := func(sizes []uint8, ttlMs uint8) bool {
		ttl := time.Duration(ttlMs%50+1) * time.Millisecond
		s := newSink(t, Options{TTL: ttl})
		at := time.Duration(0)
		for i := range sizes {
			s.Put(at, k("r", "f", fmt.Sprintf("d%d", i)), v(int64(sizes[i])+1), 1)
			at += 7 * time.Millisecond
		}
		at += ttl * 2
		s.ExpireSweep(at)
		for i := range sizes {
			if _, _, ok := s.Get(at, k("r", "f", fmt.Sprintf("d%d", i))); !ok {
				return false
			}
		}
		return s.MemBytes() == 0 && s.DiskBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The last Get proactively releases: a repeat Get misses.
func TestRetainOffProactiveReleaseUnchanged(t *testing.T) {
	s := newSink(t, Options{Shards: 1})
	key := k("r1", "f", "x")
	s.Put(0, key, v(32), 1)
	if _, _, ok := s.Get(time.Second, key); !ok {
		t.Fatal("consume miss")
	}
	if _, _, ok := s.Get(2*time.Second, key); ok {
		t.Fatal("entry survived its last consumer's Get")
	}
	if st := s.Stats(); st.ProactiveReleases != 1 {
		t.Fatalf("stats = %+v, want 1 proactive release", st)
	}
}

// Clear models node failure: both tiers wiped, gauges zeroed, sink usable.
func TestClearWipesBothTiers(t *testing.T) {
	s := newSink(t, Options{TTL: time.Second, Shards: 4})
	memKey := k("r1", "f", "mem")
	spillKey := k("r1", "f", "spill")
	s.Put(0, spillKey, v(10), 2)
	s.ExpireSweep(5 * time.Second) // spillKey -> disk tier
	s.Put(6*time.Second, memKey, v(20), 2)
	if s.MemBytes() != 20 || s.DiskBytes() != 10 {
		t.Fatalf("setup gauges = mem %d disk %d", s.MemBytes(), s.DiskBytes())
	}

	s.Clear(7 * time.Second)
	if s.MemBytes() != 0 || s.DiskBytes() != 0 {
		t.Fatalf("post-Clear gauges = mem %d disk %d, want 0/0", s.MemBytes(), s.DiskBytes())
	}
	if _, _, ok := s.Get(8*time.Second, memKey); ok {
		t.Fatal("memory entry survived Clear")
	}
	if _, _, ok := s.Get(8*time.Second, spillKey); ok {
		t.Fatal("spilled entry survived Clear")
	}
	if memEntries(s) != 0 {
		t.Fatalf("Len = %d after Clear", memEntries(s))
	}

	// The sink keeps working after a Clear (node recovery).
	s.Put(9*time.Second, memKey, v(8), 1)
	if _, tier, ok := s.Get(9*time.Second+500*time.Millisecond, memKey); !ok || tier != Memory {
		t.Fatalf("post-recovery Get = (%v, %v), want memory hit", tier, ok)
	}
}
