package qos

import (
	"fmt"
	"reflect"
	"testing"
)

// newTestStride returns a scheduler of capacity slots whose waiters are ints.
func newTestStride(capacity int, tenants map[string]Tenant) *Stride[int] {
	c := Config{Capacity: capacity, Tenants: tenants}.WithDefaults(capacity)
	return NewStride[int](&c)
}

// drain releases holder's slot and then keeps releasing whatever Next
// grants, returning the grant order as tenant names (waiter w belongs to
// owner[w]).
func drain(s *Stride[int], holder string, owner map[int]string) []string {
	var order []string
	for {
		s.Release(holder)
		w, ok := s.Next()
		if !ok {
			return order
		}
		holder = owner[w]
		order = append(order, holder)
	}
}

func TestStrideWeightedDrain(t *testing.T) {
	s := newTestStride(1, map[string]Tenant{"heavy": {Weight: 3}, "light": {Weight: 1}})
	if !s.Acquire("hold") {
		t.Fatal("first acquire refused under capacity")
	}
	owner := map[int]string{}
	for w := 0; w < 24; w++ {
		name := "heavy"
		if w%2 == 1 {
			name = "light"
		}
		if s.Acquire(name) {
			t.Fatalf("acquire %d granted past capacity", w)
		}
		s.Park(name, w)
		owner[w] = name
	}
	order := drain(s, "hold", owner)
	if len(order) != 24 {
		t.Fatalf("drained %d, want 24", len(order))
	}
	// Over the backlogged prefix (heavy runs dry after its 12th grant) every
	// window of four grants is three heavy and one light.
	for i := 0; i+4 <= 16; i += 4 {
		heavy := 0
		for _, name := range order[i : i+4] {
			if name == "heavy" {
				heavy++
			}
		}
		if heavy != 3 {
			t.Fatalf("grants %d..%d = %v, want 3 heavy : 1 light", i, i+3, order[i:i+4])
		}
	}
}

func TestStrideFIFOWithinTenant(t *testing.T) {
	s := newTestStride(1, nil)
	s.Acquire("a")
	owner := map[int]string{}
	for w := 0; w < 8; w++ {
		s.Park("a", w)
		owner[w] = "a"
	}
	for want := 0; want < 8; want++ {
		s.Release("a")
		if w, ok := s.Next(); !ok || w != want {
			t.Fatalf("grant %d went to waiter %d (ok %v): not FIFO within a tenant", want, w, ok)
		}
	}
}

// TestStrideEvictsIdleTenants pins the bounded-state property: a tenant's
// scheduling state lives only while it has grants or waiters, so
// high-cardinality tenant ids cannot grow the table — and the per-grant
// dispatch scan — without bound.
func TestStrideEvictsIdleTenants(t *testing.T) {
	s := newTestStride(2, nil)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("user-%d", i)
		s.Acquire(name)
		s.Release(name)
	}
	if n := len(s.tenants); n != 0 {
		t.Fatalf("%d idle tenants retained, want 0", n)
	}
	s.Acquire("busy")
	if n := len(s.tenants); n != 1 {
		t.Fatalf("active tenant table size %d, want 1", n)
	}
	s.Release("busy")
	if n := len(s.tenants); n != 0 {
		t.Fatal("tenant survived going idle")
	}
}

func TestStrideCappedTenantIsSkippedNotBlocking(t *testing.T) {
	s := newTestStride(3, map[string]Tenant{"capped": {MaxInFlight: 1}})
	if !s.Acquire("capped") {
		t.Fatal("capped tenant's first acquire refused")
	}
	if s.Acquire("capped") {
		t.Fatal("second grant exceeded MaxInFlight=1")
	}
	s.Park("capped", 1)
	// Slots are free and the capped tenant has the earliest finish time, yet
	// nothing is handed to it — and other tenants are not held up behind it.
	if w, ok := s.Next(); ok {
		t.Fatalf("Next granted waiter %d to a tenant at its cap", w)
	}
	if !s.Acquire("other") {
		t.Fatal("uncapped tenant refused while slots are free")
	}
	s.Release("capped")
	if w, ok := s.Next(); !ok || w != 1 {
		t.Fatalf("Next = %d, %v after the capped tenant's own release; want waiter 1", w, ok)
	}
}

func TestStrideIdleTenantRejoinsAtCurrentVtime(t *testing.T) {
	s := newTestStride(1, nil)
	// "busy" drains a ten-deep backlog of its own, moving the clock to 9.
	s.Acquire("busy")
	for w := 100; w < 109; w++ {
		s.Park("busy", w)
	}
	for i := 0; i < 9; i++ {
		s.Release("busy")
		if _, ok := s.Next(); !ok {
			t.Fatalf("backlog grant %d refused", i)
		}
	}
	// "idle" never ran; it must not collect credit for its idle past and
	// take every slot until it catches up — it joins at the clock and alternates.
	owner := map[int]string{}
	for w := 0; w < 6; w++ {
		name := []string{"idle", "busy"}[w%2]
		s.Park(name, w)
		owner[w] = name
	}
	got := drain(s, "busy", owner)
	want := []string{"idle", "busy", "idle", "busy", "idle", "busy"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
}

func TestStrideEqualFinishBreaksTiesByName(t *testing.T) {
	s := newTestStride(1, nil)
	s.Acquire("hold")
	owner := map[int]string{0: "zed", 1: "mid", 2: "abe"}
	for w, name := range owner {
		s.Park(name, w)
	}
	got := drain(s, "hold", owner)
	if want := []string{"abe", "mid", "zed"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
}

func TestStrideAbandonRemovesExactlyOneWaiter(t *testing.T) {
	s := newTestStride(1, nil)
	s.Acquire("hold")
	for w := 0; w < 3; w++ {
		s.Park("a", w)
	}
	if !s.Abandon("a", 1) {
		t.Fatal("parked waiter not found")
	}
	if s.Abandon("a", 1) || s.Abandon("nobody", 0) {
		t.Fatal("abandoned a waiter that is not parked")
	}
	waiting, inflight, per := s.Snapshot()
	if waiting != 2 || inflight != 1 || per["a"].Waiting != 2 {
		t.Fatalf("after abandon: waiting=%d inflight=%d a=%+v; want 2, 1, Waiting 2", waiting, inflight, per["a"])
	}
	s.Release("hold")
	for _, want := range []int{0, 2} { // FIFO order survives the removal
		w, ok := s.Next()
		if !ok || w != want {
			t.Fatalf("Next = %d, %v; want waiter %d", w, ok, want)
		}
		s.Release("a")
	}
	if waiting, inflight, per := s.Snapshot(); waiting != 0 || inflight != 0 || len(per) != 0 {
		t.Fatalf("not drained: waiting=%d inflight=%d tenants=%v", waiting, inflight, per)
	}
	// A tenant whose only waiter abandons holds no state either.
	s.Acquire("hold")
	s.Park("b", 9)
	s.Abandon("b", 9)
	if _, _, per := s.Snapshot(); len(per) != 1 {
		t.Fatalf("tenants after a lone waiter abandoned: %v, want only the holder", per)
	}
}
