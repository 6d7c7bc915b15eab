package wmm

import "testing"

// newSink returns a sink whose invariants are checked when the test ends.
func newSink(t testing.TB, opts Options) *Sink {
	s := NewSink(opts)
	t.Cleanup(func() { checkSink(t, s) })
	return s
}

// checkSink verifies the bookkeeping invariants the package doc states, on
// a quiescent sink:
//
//   - every indexed entry is on exactly its request's chain on its own
//     stripe, and every chained entry is indexed;
//   - the expiry heap holds exactly the memory-tier entries that carry a
//     TTL, each at its recorded slot, in heap order;
//   - sh.memBytes, s.memBytes and s.diskBytes equal the per-tier size sums.
func checkSink(t testing.TB, s *Sink) {
	t.Helper()
	var mem, disk int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		var shMem int64
		queued := 0
		for key, e := range sh.entries {
			if e.key != key || s.shardOf(key) != sh {
				t.Errorf("stripe %d indexes %v under %v", i, e.key, key)
			}
			switch {
			case e.tier == Memory && s.opts.TTL > 0:
				queued++
				if e.slot < 0 || e.slot >= len(sh.ttl) || sh.ttl[e.slot] != e {
					t.Errorf("%v: TTL'd memory entry not in the heap at its slot %d", key, e.slot)
				}
			case e.slot != -1:
				t.Errorf("%v (%v tier) holds heap slot %d", key, e.tier, e.slot)
			}
			switch e.tier {
			case Memory:
				shMem += e.val.Size
			case Disk:
				disk += e.val.Size
			default:
				t.Errorf("%v has tier %v", key, e.tier)
			}
		}
		chained := 0
		for req, head := range sh.reqs {
			if head == nil || head.prev != nil {
				t.Errorf("stripe %d: chain %q has a bad head", i, req)
			}
			for c := head; c != nil && chained <= len(sh.entries); c = c.next {
				chained++
				if c.key.ReqID != req || sh.entries[c.key] != c {
					t.Errorf("stripe %d: chain %q carries unindexed or foreign entry %v", i, req, c.key)
				}
				if c.next != nil && c.next.prev != c {
					t.Errorf("stripe %d: chain %q is broken after %v", i, req, c.key)
				}
			}
		}
		if chained != len(sh.entries) {
			t.Errorf("stripe %d: %d chained entries, %d indexed", i, chained, len(sh.entries))
		}
		if len(sh.ttl) != queued {
			t.Errorf("stripe %d: heap holds %d entries, %d live TTL'd memory entries", i, len(sh.ttl), queued)
		}
		for j, e := range sh.ttl {
			if e.slot != j || sh.entries[e.key] != e {
				t.Errorf("stripe %d: heap[%d] is %v with slot %d", i, j, e.key, e.slot)
			}
			if j > 0 && sh.ttl[(j-1)/2].expiresAt > e.expiresAt {
				t.Errorf("stripe %d: heap order broken at %d", i, j)
			}
		}
		if sh.memBytes != shMem {
			t.Errorf("stripe %d: memBytes = %d, memory-tier entries sum to %d", i, sh.memBytes, shMem)
		}
		mem += shMem
		sh.mu.Unlock()
	}
	if got := s.memBytes.Load(); got != mem {
		t.Errorf("memBytes = %d, memory-tier entries sum to %d", got, mem)
	}
	if got := s.diskBytes.Load(); got != disk {
		t.Errorf("diskBytes = %d, spill-tier entries sum to %d", got, disk)
	}
}
