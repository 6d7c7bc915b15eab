package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestIdleFreeListConcurrency hammers AcquireIdle/Release/ReapIdle from
// many goroutines and checks the pool invariants stay exact: every acquire
// returns a container in the Busy state that no other goroutine holds,
// MemInUse always equals live containers times the spec size, and the
// free-list never hands out a recycled container. Run with -race in CI.
func TestIdleFreeListConcurrency(t *testing.T) {
	const (
		workers = 16
		iters   = 300
		fnCount = 3
	)
	spec := Spec{MemoryMB: 128}
	n := NewNode("w1", Options{KeepAlive: time.Microsecond})

	var wg sync.WaitGroup
	var held atomic.Int64 // containers currently held Busy by workers
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := fmt.Sprintf("f%d", w%fnCount)
			for i := 0; i < iters; i++ {
				c, warm := n.AcquireIdle(fn)
				if !warm {
					c = n.StartContainer(fn, spec)
				}
				if got := c.State(); got != Busy {
					t.Errorf("acquired container in state %v", got)
					return
				}
				if c.Fn != fn {
					t.Errorf("free-list handed %s a container of %s", fn, c.Fn)
					return
				}
				held.Add(1)
				if i%7 == 0 {
					c.AddDLUPending(64)
				}
				held.Add(-1)
				if i%7 == 0 {
					c.AddDLUPending(-64)
				}
				n.Release(c)
				if i%11 == 0 {
					n.ReapIdle()
				}
			}
		}()
	}
	wg.Wait()
	n.ReapIdle()

	// Quiescent invariants: memory accounting matches the live container
	// count exactly, across all functions.
	live := n.Containers("")
	if want := int64(live) * spec.MemoryBytes(); n.MemInUse() != want {
		t.Fatalf("MemInUse = %d, want %d (%d live containers)", n.MemInUse(), want, live)
	}
	// Draining the free-list returns each live idle container exactly once.
	seen := map[*Container]bool{}
	acquired := 0
	for f := 0; f < fnCount; f++ {
		fn := fmt.Sprintf("f%d", f)
		for {
			c, ok := n.AcquireIdle(fn)
			if !ok {
				break
			}
			if seen[c] {
				t.Fatalf("container %s handed out twice", c.ID)
			}
			seen[c] = true
			acquired++
		}
	}
	if acquired != live {
		t.Fatalf("free-list drained %d containers, %d live", acquired, live)
	}
}

// TestReapIdlePrunesFreeList pins that a recycled container leaves the
// free-list: after keep-alive expiry, AcquireIdle must cold-miss rather
// than hand out a Recycled container, and memory accounting must drop.
func TestReapIdlePrunesFreeList(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewNode("w1", Options{KeepAlive: 10 * time.Millisecond, Clock: clk})
	c := n.StartContainer("f", Spec{MemoryMB: 128})
	n.Release(c)
	clk.Advance(20 * time.Millisecond)
	if reaped := n.ReapIdle(); reaped != 1 {
		t.Fatalf("reaped %d, want 1", reaped)
	}
	if c.State() != Recycled {
		t.Fatalf("state = %v, want recycled", c.State())
	}
	if _, ok := n.AcquireIdle("f"); ok {
		t.Fatal("AcquireIdle returned a recycled container")
	}
	if n.MemInUse() != 0 {
		t.Fatalf("MemInUse = %d after reap", n.MemInUse())
	}
	if n.Containers("f") != 0 {
		t.Fatalf("Containers = %d after reap", n.Containers("f"))
	}
}

// TestDLUCloseRefusesLateEnqueue pins the container-owned close protocol:
// an enqueue racing a close must be refused, never panic, and the daemon
// must drain what was accepted.
func TestDLUCloseRefusesLateEnqueue(t *testing.T) {
	n := NewNode("w1", Options{})
	c := n.StartContainer("f", Spec{MemoryMB: 128})

	var drained atomic.Int64
	var daemon sync.WaitGroup
	queue, ok := c.DLUEnqueue(DLUTask{})
	if !ok || queue == nil {
		t.Fatal("first enqueue must open the queue")
	}
	daemon.Add(1)
	go func() {
		defer daemon.Done()
		for range queue {
			drained.Add(1)
		}
	}()

	var wg sync.WaitGroup
	accepted := int64(1) // the opening enqueue
	var acceptedMu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if q, ok := c.DLUEnqueue(DLUTask{}); ok {
					if q != nil {
						t.Error("queue reopened after first use")
						return
					}
					acceptedMu.Lock()
					accepted++
					acceptedMu.Unlock()
				} else {
					return // closed: every later enqueue must also refuse
				}
			}
		}()
	}
	c.DLUClose()
	wg.Wait()
	c.DLUClose() // idempotent
	if _, ok := c.DLUEnqueue(DLUTask{}); ok {
		t.Fatal("enqueue accepted after close")
	}
	daemon.Wait()
	if drained.Load() != accepted {
		t.Fatalf("daemon drained %d tasks, %d accepted", drained.Load(), accepted)
	}
}

// TestFnPoolStorm drives every entry into the per-function pools at once —
// Acquire, Release, StartContainer, ReapIdle on a short keep-alive and
// CloseDLUs, from 16 goroutines over two functions on one node — and then
// checks the pool invariant directly: every live container sits in exactly
// one free-list iff it is Idle, Containers counts the live set and MemInUse
// is the sum of the live specs. Run with -race in CI.
func TestFnPoolStorm(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewNode("w1", Options{KeepAlive: time.Millisecond, Clock: clk})
	specs := map[string]Spec{"f": {MemoryMB: 128}, "g": {MemoryMB: 256}}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn := "f"
			if w%2 == 1 {
				fn = "g"
			}
			pool := n.Pool(fn)
			for i := 0; i < 300; i++ {
				c, warm := pool.Acquire()
				if !warm {
					c = n.StartContainer(fn, specs[fn])
				}
				if c.Fn != fn || c.State() != Busy {
					t.Errorf("%s acquired %s in state %v", fn, c.ID, c.State())
					return
				}
				if i%5 == 0 {
					c.AddDLUPending(64) // the reaper must skip it while idle
				}
				n.Release(c)
				if i%5 == 0 {
					c.AddDLUPending(-64)
				}
				switch i % 16 {
				case w:
					clk.Advance(time.Millisecond)
					n.ReapIdle()
				case (w + 8) % 16:
					n.CloseDLUs()
				}
			}
		}(w)
	}
	wg.Wait()

	var mem int64
	stacked := map[*Container]int{}
	for fn, spec := range specs {
		p := n.Pool(fn)
		for _, c := range p.idle {
			stacked[c]++
		}
		for _, c := range p.live {
			mem += spec.MemoryBytes()
			if st := c.State(); (st == Idle) != (stacked[c] == 1) || stacked[c] > 1 || st == Recycled {
				t.Errorf("%s: state %v, in the free-list %d times", c.ID, st, stacked[c])
			}
		}
		if got := n.Containers(fn); got != len(p.live) {
			t.Errorf("Containers(%s) = %d, %d live", fn, got, len(p.live))
		}
		if got := p.Idle(); got != len(p.live) {
			t.Errorf("%s: %d idle after the storm, want all %d live", fn, got, len(p.live))
		}
	}
	if len(stacked) != n.Containers("") {
		t.Errorf("free-lists hold %d containers, %d live", len(stacked), n.Containers(""))
	}
	if n.MemInUse() != mem {
		t.Errorf("MemInUse = %d, want the live specs' %d", n.MemInUse(), mem)
	}
}
