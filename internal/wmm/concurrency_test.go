package wmm

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestParallelPutGetPeek hammers the sharded sink from many goroutines with
// interleaved Put/Get on keys that collide across shards (shared fn and
// data names, per-goroutine requests) and checks that no datum is lost and
// the accounting drains to zero. Run with -race in CI.
func TestParallelPutGetPeek(t *testing.T) {
	s := newSink(t, Options{TTL: time.Minute, Shards: 8})
	const goroutines = 16
	const ops = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := fmt.Sprintf("r%d", g)
			for i := 0; i < ops; i++ {
				at := time.Duration(i) * time.Millisecond
				key := k(req, fmt.Sprintf("f%d", i%4), fmt.Sprintf("d%d", i))
				s.Put(at, key, v(8), 1)
				if _, tier, ok := s.Get(at, key); !ok || tier != Memory {
					t.Errorf("get lost %v (tier=%v ok=%v)", key, tier, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.MemBytes() != 0 || s.DiskBytes() != 0 || memEntries(s) != 0 {
		t.Fatalf("mem=%d disk=%d len=%d after full consumption, want 0",
			s.MemBytes(), s.DiskBytes(), memEntries(s))
	}
}

// TestExpiryRacesConsumers races TTL expiry against consumers: producers put
// at early timestamps, consumers fetch at timestamps past the TTL, so every
// fetch contends with the lazy expiry moving the entry to the spill tier.
// Data must never be lost, whichever side wins, and both tiers must drain.
func TestExpiryRacesConsumers(t *testing.T) {
	const ttl = 10 * time.Millisecond
	s := newSink(t, Options{TTL: ttl})
	const goroutines = 12
	const ops = 250
	var wg sync.WaitGroup
	var memHits, diskHits int64
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := fmt.Sprintf("r%d", g)
			lm, ld := int64(0), int64(0)
			for i := 0; i < ops; i++ {
				at := time.Duration(i) * time.Millisecond
				key := k(req, "f", fmt.Sprintf("d%d", i))
				s.Put(at, key, v(16), 1)
				// Half the fetches happen after the TTL has fired, forcing
				// the expiry path to run just before the consumer's read.
				fetchAt := at
				if i%2 == 0 {
					fetchAt = at + 2*ttl
				}
				_, tier, ok := s.Get(fetchAt, key)
				if !ok {
					t.Errorf("datum %v lost in expiry race", key)
					return
				}
				switch tier {
				case Memory:
					lm++
				case Disk:
					ld++
				}
			}
			mu.Lock()
			memHits += lm
			diskHits += ld
			mu.Unlock()
		}()
	}
	wg.Wait()
	if memHits+diskHits != goroutines*ops {
		t.Fatalf("hits = %d mem + %d disk, want %d total", memHits, diskHits, goroutines*ops)
	}
	if diskHits == 0 {
		t.Fatal("no disk hits: expiry never raced a consumer")
	}
	st := s.Stats()
	if st.MemHits != memHits || st.DiskHits != diskHits {
		t.Fatalf("stats = %+v, observed mem=%d disk=%d", st, memHits, diskHits)
	}
	for g := 0; g < goroutines; g++ {
		s.ReleaseRequest(time.Hour, fmt.Sprintf("r%d", g))
	}
	s.ExpireSweep(time.Hour)
	if s.MemBytes() != 0 || s.DiskBytes() != 0 {
		t.Fatalf("mem=%d disk=%d after teardown, want 0", s.MemBytes(), s.DiskBytes())
	}
}

// TestStatsMergeConsistency checks that the per-shard counters merge into
// exact totals under concurrency: every operation is counted exactly once
// even though different goroutines land on different stripes.
func TestStatsMergeConsistency(t *testing.T) {
	s := newSink(t, Options{Shards: 4})
	const goroutines = 10
	const puts = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := fmt.Sprintf("r%d", g)
			for i := 0; i < puts; i++ {
				key := k(req, "f", fmt.Sprintf("d%d", i))
				s.Put(0, key, v(4), 1)
				s.Get(0, key)                          // mem hit + proactive release
				s.Get(0, k(req, "f", "never-put-key")) // miss
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	want := Stats{
		Puts:              goroutines * puts,
		MemHits:           goroutines * puts,
		Misses:            goroutines * puts,
		ProactiveReleases: goroutines * puts,
		PeakMemBytes:      st.PeakMemBytes, // concurrency-dependent, checked below
	}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if st.PeakMemBytes < 4 || st.PeakMemBytes > 4*goroutines {
		t.Fatalf("peak = %d, want within [4, %d]", st.PeakMemBytes, 4*goroutines)
	}
	if s.MemBytes() != 0 || memEntries(s) != 0 {
		t.Fatalf("mem=%d len=%d, want drained", s.MemBytes(), memEntries(s))
	}
}

// TestCrossShardAggregates spreads one request across every shard and checks
// the merged gauges and per-shard integrals against hand-computed values.
func TestCrossShardAggregates(t *testing.T) {
	s := newSink(t, Options{Shards: 16})
	const n = 64 // several keys per shard with high probability
	var total int64
	for i := 0; i < n; i++ {
		sz := int64(100 + i)
		total += sz
		s.Put(0, k("r1", "f", fmt.Sprintf("d%d", i)), v(sz), 1)
	}
	if s.MemBytes() != total {
		t.Fatalf("mem = %d, want %d", s.MemBytes(), total)
	}
	if memEntries(s) != n {
		t.Fatalf("len = %d, want %d", memEntries(s), n)
	}
	if got := s.Stats().PeakMemBytes; got != total {
		t.Fatalf("peak = %d, want %d (single writer: peak is the sum)", got, total)
	}
	// The whole-sink integral is the sum of the per-shard integrals: holding
	// `total` bytes for 10s must integrate to total/MB * 10 regardless of
	// how the keys hashed.
	gotMBs := s.MemIntegralMBs(10 * time.Second)
	wantMBs := float64(total) / (1 << 20) * 10
	if gotMBs < wantMBs*0.999 || gotMBs > wantMBs*1.001 {
		t.Fatalf("integral = %v MB·s, want ~%v", gotMBs, wantMBs)
	}
	s.ReleaseRequest(10*time.Second, "r1")
	if s.MemBytes() != 0 || memEntries(s) != 0 {
		t.Fatalf("mem=%d len=%d after release, want 0", s.MemBytes(), memEntries(s))
	}
}
