package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestRequestIDsUniqueAndWellFormed pins the ID contract the block
// allocator must preserve: the first request on a fresh system is always
// req-1 (the first block claims the sequence head), every ID keeps the
// req-<n> shape, and a concurrent storm never mints the same ID twice.
// Dense numbering is NOT guaranteed: a block dropped by the pool skips
// its unused range.
func TestRequestIDsUniqueAndWellFormed(t *testing.T) {
	sys, _ := newWCSystem(t, 1, nil)
	defer sys.Shutdown()
	if inv := runWC(t, sys, "a b"); inv.ReqID() != "req-1" {
		t.Fatalf("first invoke got ReqID %q, want req-1", inv.ReqID())
	}

	const goroutines, perG = 8, 100
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				inv, err := sys.Invoke(map[string][]byte{"start.src": []byte("a b")})
				if err != nil {
					t.Error(err)
					return
				}
				ids[g] = append(ids[g], inv.ReqID())
				if err := inv.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool, goroutines*perG)
	for _, list := range ids {
		for _, id := range list {
			if !strings.HasPrefix(id, "req-") {
				t.Fatalf("malformed ReqID %q", id)
			}
			if _, err := strconv.ParseInt(id[len("req-"):], 10, 64); err != nil {
				t.Fatalf("non-numeric ReqID %q", id)
			}
			if seen[id] {
				t.Fatalf("duplicate ReqID %q", id)
			}
			seen[id] = true
		}
	}
}

// load is the cap's holders and parked acquirers, summed over the lanes (the
// count the single shared word used to keep).
func (c *instanceCap) load() int64 {
	n := c.waiting.Load()
	for i := range c.lanes {
		n += int64(int32(c.lanes[i].w.Load()))
	}
	return n
}

// quota is a lane's share of the cap.
func (c *instanceCap) quota(lane int) int64 { return c.lanes[lane].w.Load() >> 32 }

// TestInstanceCapQuotaFollowsTheStripe: a stripe that runs a function takes
// the other lanes' quota once, and from then on acquires and releases on its
// own lane alone; every lane's quota still adds up to the cap.
func TestInstanceCapQuotaFollowsTheStripe(t *testing.T) {
	var c instanceCap
	c.init(obs.NumStripes + 3)
	for round := 0; round < 3; round++ {
		for i := 0; i < obs.NumStripes+3; i++ {
			if c.acquire(5) {
				t.Fatalf("round %d: acquire %d parked under the cap", round, i)
			}
		}
		for i := 0; i < obs.NumStripes+3; i++ {
			if c.release(5) {
				t.Fatalf("round %d: release %d woke a waiter nobody was", round, i)
			}
		}
	}
	if q := c.quota(5); q != obs.NumStripes+3 {
		t.Fatalf("stripe 5 holds %d of the cap's %d slots after running it full", q, obs.NumStripes+3)
	}
	if n := c.load(); n != 0 {
		t.Fatalf("%d holders left", n)
	}
}

// TestInstanceCapStormNeverExceedsTheCap: acquirers on every stripe, far more
// than the cap, never hold more than it at once, every one gets through, and
// the quota is all there at the end.
func TestInstanceCapStormNeverExceedsTheCap(t *testing.T) {
	const max, workers, rounds = 5, 24, 300
	var c instanceCap
	c.init(max)
	var held, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(stripe uint32) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.acquire(stripe)
				n := held.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				runtime.Gosched()
				held.Add(-1)
				c.release(stripe)
			}
		}(uint32(g))
	}
	wg.Wait()
	if p := peak.Load(); p > max {
		t.Fatalf("%d held at once under a cap of %d", p, max)
	}
	var total int64
	for i := range c.lanes {
		total += c.quota(i)
	}
	if total != max || c.load() != 0 || c.waiting.Load() != 0 {
		t.Fatalf("after the storm: quota %d (want %d), %d holders, %d waiting", total, max, c.load(), c.waiting.Load())
	}
}

// TestStripedLayout pins what lets a warm request write no line another
// stripe reads or writes: in System and fnState, every word a stripe writes
// — a lane of a striped counter, of the gate or of the instance cap, a
// stripe's free-list — is far enough from every word of any other owner
// that no 64-byte line holds both, at any 8-byte alignment of the record.
func TestStripedLayout(t *testing.T) {
	type word struct {
		path       string
		start, end uintptr
		owner      int // stripe, or -1: read by every stripe
	}
	var walk func(rt reflect.Type, path string, off uintptr, owner int, out *[]word)
	walk = func(rt reflect.Type, path string, off uintptr, owner int, out *[]word) {
		switch rt.Kind() {
		case reflect.Struct:
			for i := 0; i < rt.NumField(); i++ {
				if f := rt.Field(i); f.Name != "_" {
					walk(f.Type, path+"."+f.Name, off+f.Offset, owner, out)
				}
			}
		case reflect.Array:
			striped := strings.HasSuffix(path, ".lanes") || strings.HasSuffix(path, ".freeReqs")
			for i := 0; i < rt.Len(); i++ {
				o := owner
				if striped {
					o = i
				}
				walk(rt.Elem(), fmt.Sprintf("%s[%d]", path, i), off+uintptr(i)*rt.Elem().Size(), o, out)
			}
		default:
			if rt.Size() > 0 {
				*out = append(*out, word{path, off, off + rt.Size(), owner})
			}
		}
	}
	for _, rt := range []reflect.Type{reflect.TypeOf(System{}), reflect.TypeOf(fnState{})} {
		var words []word
		walk(rt, rt.Name(), 0, -1, &words)
		lanes := 0
		for i, a := range words {
			if a.owner >= 0 {
				lanes++
			}
			for _, b := range words[i+1:] {
				if a.owner == b.owner || (a.owner < 0 && b.owner < 0) {
					continue
				}
				lo, hi := a, b
				if hi.start < lo.start {
					lo, hi = hi, lo
				}
				// The last line start at or before lo's last byte, on an
				// 8-byte grid, must end before hi begins.
				if (lo.end-1)&^7+64 > hi.start {
					t.Errorf("%s (stripe %d) and %s (stripe %d) can share a cache line", lo.path, lo.owner, hi.path, hi.owner)
				}
			}
		}
		if lanes == 0 {
			t.Fatalf("%s: no striped words found", rt.Name())
		}
	}
}
