package qos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func fqConfig(capacity int, tenants map[string]Tenant) *Config {
	c := Config{Capacity: capacity, Tenants: tenants}.WithDefaults(capacity)
	return &c
}

func TestFairQueueImmediateUnderCapacity(t *testing.T) {
	q := NewFairQueue(fqConfig(4, nil))
	var rels []func()
	for i := 0; i < 4; i++ {
		done := make(chan func(), 1)
		go func() { done <- q.Acquire("a") }()
		select {
		case r := <-done:
			rels = append(rels, r)
		case <-time.After(2 * time.Second):
			t.Fatalf("acquire %d blocked under capacity", i)
		}
	}
	if got := q.InFlight(); got != 4 {
		t.Fatalf("inflight = %d, want 4", got)
	}
	for _, r := range rels {
		r()
	}
	if got := q.InFlight(); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
}

// TestFairQueueWeightedDrain saturates the queue, parks waiters of a 3:1
// weight pair, and checks the drain order honours the weights.
func TestFairQueueWeightedDrain(t *testing.T) {
	q := NewFairQueue(fqConfig(1, map[string]Tenant{
		"heavy": {Weight: 3},
		"light": {Weight: 1},
	}))
	hold := q.Acquire("light") // saturate

	const per = 12
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	park := func(tenant string) {
		wg.Add(1)
		parked := make(chan struct{})
		go func() {
			defer wg.Done()
			go close(parked)
			rel := q.Acquire(tenant)
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			rel()
		}()
		<-parked
	}
	// Park deterministically: all waiters in place before the drain starts.
	for i := 0; i < per; i++ {
		park("heavy")
		park("light")
	}
	for q.Waiting() != 2*per {
		time.Sleep(time.Millisecond)
	}

	hold() // begin the drain: each released grant admits the next waiter
	wg.Wait()

	if len(order) != 2*per {
		t.Fatalf("drained %d, want %d", len(order), 2*per)
	}
	// In every weight-cycle-sized prefix, heavy should hold ~3/4 of grants.
	heavy := 0
	for _, name := range order[:16] {
		if name == "heavy" {
			heavy++
		}
	}
	if heavy < 10 || heavy > 14 {
		t.Fatalf("heavy got %d of first 16 grants, want ~12 (3:1 weights)", heavy)
	}
}

func TestFairQueueFIFOWithinTenant(t *testing.T) {
	q := NewFairQueue(fqConfig(1, nil))
	hold := q.Acquire("a")
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel := q.Acquire("a")
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			rel()
		}()
		// Park each waiter before issuing the next so arrival order is i.
		for q.Waiting() != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	hold()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v not FIFO within tenant", order)
		}
	}
}

func TestFairQueuePerTenantInFlightCap(t *testing.T) {
	q := NewFairQueue(fqConfig(8, map[string]Tenant{
		"capped": {MaxInFlight: 2},
	}))
	r1 := q.Acquire("capped")
	r2 := q.Acquire("capped")
	granted := make(chan func(), 1)
	go func() { granted <- q.Acquire("capped") }()
	select {
	case <-granted:
		t.Fatal("third grant exceeded MaxInFlight=2")
	case <-time.After(50 * time.Millisecond):
	}
	// Other tenants are unaffected by the cap.
	rel := q.Acquire("other")
	rel()
	r1()
	select {
	case r := <-granted:
		r()
	case <-time.After(2 * time.Second):
		t.Fatal("capped tenant's waiter not granted after its own release")
	}
	r2()
}

// TestFairQueueEvictsIdleTenants pins the bounded-state property: tenant
// scheduling state lives only while the tenant has grants or waiters, so
// high-cardinality tenant ids (per-user tags) cannot grow the table — and
// the per-grant dispatch scan — without bound.
func TestFairQueueEvictsIdleTenants(t *testing.T) {
	q := NewFairQueue(fqConfig(2, nil))
	for i := 0; i < 1000; i++ {
		rel := q.Acquire(fmt.Sprintf("user-%d", i))
		rel()
	}
	q.mu.Lock()
	n := len(q.stride.tenants)
	q.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d idle tenants retained, want 0", n)
	}
	// An active tenant stays until fully idle.
	rel := q.Acquire("busy")
	q.mu.Lock()
	n = len(q.stride.tenants)
	q.mu.Unlock()
	if n != 1 {
		t.Fatalf("active tenant table size %d, want 1", n)
	}
	rel()
	q.mu.Lock()
	n = len(q.stride.tenants)
	q.mu.Unlock()
	if n != 0 {
		t.Fatal("tenant survived going idle")
	}
}

// TestFairQueueStorm hammers the queue from many tenants and goroutines
// (run under -race by CI) and checks the capacity invariant throughout.
func TestFairQueueStorm(t *testing.T) {
	const capacity = 5
	q := NewFairQueue(fqConfig(capacity, map[string]Tenant{
		"t0": {Weight: 4},
		"t1": {Weight: 2, MaxInFlight: 3},
		"t2": {Weight: 1, MaxInFlight: 1},
	}))
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	names := []string{"t0", "t1", "t2", "t3"}
	for g := 0; g < 32; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := names[g%len(names)]
			for i := 0; i < 200; i++ {
				rel := q.Acquire(name)
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				cur.Add(-1)
				rel()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > capacity {
		t.Fatalf("observed %d concurrent grants, capacity %d", p, capacity)
	}
	if q.InFlight() != 0 || q.Waiting() != 0 {
		t.Fatalf("queue not drained: inflight=%d waiting=%d", q.InFlight(), q.Waiting())
	}
}
