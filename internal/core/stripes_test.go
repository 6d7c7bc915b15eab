package core

import (
	"strconv"
	"strings"
	"sync"
	"testing"
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
