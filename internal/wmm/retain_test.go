package wmm

import (
	"testing"
	"time"

	"repro/internal/dataflow"
)

func val(n int) dataflow.Value {
	return dataflow.Value{Payload: make([]byte, n), Size: int64(n)}
}

// With RetainInFlight, the last consumer's Get must not release the entry:
// it stays readable (the replay source) until ReleaseRequest reclaims it.
func TestRetainInFlightKeepsConsumedEntries(t *testing.T) {
	s := newSink(t, Options{RetainInFlight: true, Shards: 4})
	key := Key{ReqID: "r1", Fn: "f", Data: "x"}
	s.Put(0, key, val(100), 1)

	if _, tier, ok := s.Get(time.Second, key); !ok || tier != Memory {
		t.Fatalf("first Get = (%v, %v), want memory hit", tier, ok)
	}
	// The entry was fully consumed but must survive for replay.
	if _, tier, ok := s.Get(2*time.Second, key); !ok || tier != Memory {
		t.Fatalf("replay Get = (%v, %v), want memory hit", tier, ok)
	}
	if got := s.MemBytes(); got != 100 {
		t.Fatalf("MemBytes = %d, want 100 (entry retained)", got)
	}
	st := s.Stats()
	if st.Retained != 1 {
		t.Fatalf("Retained = %d, want 1", st.Retained)
	}
	if st.ProactiveReleases != 0 {
		t.Fatalf("ProactiveReleases = %d, want 0 under retention", st.ProactiveReleases)
	}

	s.ReleaseRequest(3*time.Second, "r1")
	if _, _, ok := s.Get(4*time.Second, key); ok {
		t.Fatal("entry survived ReleaseRequest")
	}
	if got := s.MemBytes(); got != 0 {
		t.Fatalf("MemBytes = %d after release, want 0", got)
	}
}

// A retained, fully-consumed entry must spill on TTL (not drop): replay may
// still need it, and the spill tier is reclaimed at request completion.
func TestRetainInFlightSpillsConsumedOnTTL(t *testing.T) {
	s := newSink(t, Options{RetainInFlight: true, TTL: time.Second, Shards: 1})
	key := Key{ReqID: "r1", Fn: "f", Data: "x"}
	s.Put(0, key, val(64), 1)
	if _, _, ok := s.Get(100*time.Millisecond, key); !ok {
		t.Fatal("consume miss")
	}
	s.ExpireSweep(2 * time.Second)
	if _, tier, ok := s.Get(3*time.Second, key); !ok || tier != Disk {
		t.Fatalf("post-TTL Get = (%v, %v), want disk hit", tier, ok)
	}
	if s.DiskBytes() != 64 {
		t.Fatalf("DiskBytes = %d, want 64", s.DiskBytes())
	}
	s.ReleaseRequest(4*time.Second, "r1")
	if s.DiskBytes() != 0 {
		t.Fatalf("DiskBytes = %d after release, want 0", s.DiskBytes())
	}
}

// Without the knob the behaviour is unchanged: last Get proactively releases.
func TestRetainOffProactiveReleaseUnchanged(t *testing.T) {
	s := newSink(t, Options{Shards: 1})
	key := Key{ReqID: "r1", Fn: "f", Data: "x"}
	s.Put(0, key, val(32), 1)
	if _, _, ok := s.Get(time.Second, key); !ok {
		t.Fatal("consume miss")
	}
	if _, _, ok := s.Get(2*time.Second, key); ok {
		t.Fatal("entry survived proactive release without retention")
	}
	if st := s.Stats(); st.Retained != 0 || st.ProactiveReleases != 1 {
		t.Fatalf("stats = %+v, want 1 proactive release, 0 retained", st)
	}
}

// Clear models node failure: both tiers wiped, gauges zeroed, sink usable.
func TestClearWipesBothTiers(t *testing.T) {
	s := newSink(t, Options{TTL: time.Second, Shards: 4})
	memKey := Key{ReqID: "r1", Fn: "f", Data: "mem"}
	spillKey := Key{ReqID: "r1", Fn: "f", Data: "spill"}
	s.Put(0, spillKey, val(10), 2)
	s.ExpireSweep(5 * time.Second) // spillKey -> disk tier
	s.Put(6*time.Second, memKey, val(20), 2)
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
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Clear", s.Len())
	}

	// The sink keeps working after a Clear (node recovery).
	s.Put(9*time.Second, memKey, val(8), 1)
	if _, tier, ok := s.Get(9*time.Second+500*time.Millisecond, memKey); !ok || tier != Memory {
		t.Fatalf("post-recovery Get = (%v, %v), want memory hit", tier, ok)
	}
}

// Stats.Merge carries the new Retained counter.
func TestStatsMergeRetained(t *testing.T) {
	var a, b Stats
	a.Retained = 2
	b.Retained = 3
	a.Merge(b)
	if a.Retained != 5 {
		t.Fatalf("merged Retained = %d, want 5", a.Retained)
	}
}
