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

// residence counts where each of the pool's idle containers sits: once per
// slot that holds it plus once per list entry. Quiescent pools only.
func residence(p *FnPool) map[*Container]int {
	at := map[*Container]int{}
	for i := range p.slots {
		if c := p.slots[i].c.Load(); c != nil {
			at[c]++
		}
	}
	for _, c := range p.idle {
		at[c]++
	}
	return at
}

// TestFnPoolStorm drives every entry into the per-function pools at once —
// Acquire and Release by stripe and by name, StartContainer, ReapIdle on a
// short keep-alive and CloseDLUs, from 16 goroutines over two functions on
// one node — and then checks the pool invariant directly: every live
// container is Idle and sits in exactly one place, a slot or the list,
// Containers counts the live set and MemInUse is the sum of the live specs.
// Run with -race in CI.
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
			pool, stripe := n.Pool(fn), uint32(w/2) // two workers to a stripe
			for i := 0; i < 300; i++ {
				var c *Container
				var warm bool
				if i%3 == 0 {
					c, warm = n.AcquireIdle(fn)
				} else {
					c, warm = pool.Acquire(stripe)
				}
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
				if i%4 == 0 {
					n.Release(c)
				} else {
					pool.Release(c, stripe)
				}
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
	idle := 0
	for fn, spec := range specs {
		p := n.Pool(fn)
		at := residence(p)
		for _, c := range p.live {
			mem += spec.MemoryBytes()
			if st := c.State(); st != Idle || at[c] != 1 {
				t.Errorf("%s: state %v, in a slot or the list %d times", c.ID, st, at[c])
			}
		}
		if got := n.Containers(fn); got != len(p.live) {
			t.Errorf("Containers(%s) = %d, %d live", fn, got, len(p.live))
		}
		if got := p.Idle(); got != len(p.live) || len(at) != len(p.live) {
			t.Errorf("%s: Idle() = %d over %d distinct containers after the storm, want all %d live", fn, got, len(at), len(p.live))
		}
		idle += len(at)
	}
	if idle != n.Containers("") {
		t.Errorf("slots and lists hold %d containers, %d live", idle, n.Containers(""))
	}
	if n.MemInUse() != mem {
		t.Errorf("MemInUse = %d, want the live specs' %d", n.MemInUse(), mem)
	}
}

// TestPoolSlotsAndList walks the cases the hand-back slots create, one
// container at a time on a virtual clock.
func TestPoolSlotsAndList(t *testing.T) {
	spec := Spec{MemoryMB: 128}
	setup := func(keepAlive time.Duration) (*clock.Manual, *Node, *FnPool) {
		clk := clock.NewManual(time.Unix(0, 0))
		n := NewNode("w1", Options{KeepAlive: keepAlive, Clock: clk})
		return clk, n, n.Pool("f")
	}

	t.Run("a slot resident that expires is cold-missed", func(t *testing.T) {
		clk, n, p := setup(10 * time.Millisecond)
		c := n.StartContainer("f", spec)
		p.Release(c, 3)
		if p.slots[3].c.Load() != c || len(p.idle) != 0 {
			t.Fatal("the released container is not in its stripe's slot")
		}
		clk.Advance(20 * time.Millisecond)
		if reaped := n.ReapIdle(); reaped != 1 || c.State() != Recycled {
			t.Fatalf("reaped %d, state %v: want the slot's resident recycled", reaped, c.State())
		}
		if got, ok := p.Acquire(3); ok {
			t.Fatalf("its stripe was handed %s in state %v", got.ID, got.State())
		}
		if got, ok := n.AcquireIdle("f"); ok {
			t.Fatalf("by name was handed %s in state %v", got.ID, got.State())
		}
		if n.MemInUse() != 0 || n.Containers("f") != 0 || p.Idle() != 0 {
			t.Fatalf("MemInUse %d, Containers %d, Idle %d after the reap, want 0", n.MemInUse(), n.Containers("f"), p.Idle())
		}
	})

	t.Run("a resident with pending DLU data survives the reap, on the list", func(t *testing.T) {
		clk, n, p := setup(10 * time.Millisecond)
		c := n.StartContainer("f", spec)
		c.AddDLUPending(64)
		p.Release(c, 1)
		clk.Advance(20 * time.Millisecond)
		if reaped := n.ReapIdle(); reaped != 0 || c.State() != Idle {
			t.Fatalf("reaped %d, state %v: the consistency rule must keep it", reaped, c.State())
		}
		if at := residence(p); at[c] != 1 || len(p.idle) != 1 {
			t.Fatalf("after the reap the container sits in %d places, list %d long: want once, on the list", at[c], len(p.idle))
		}
		if got, ok := p.Acquire(1); !ok || got != c || got.State() != Busy {
			t.Fatal("the survivor was not handed back out")
		}
	})

	t.Run("never in a slot and on the list at once", func(t *testing.T) {
		_, n, p := setup(0)
		a, b := n.StartContainer("f", spec), n.StartContainer("f", spec)
		p.Release(a, 5)
		p.Release(b, 5) // the slot is taken: b falls through to the list
		p.Release(b, 5) // a second Release of one hold returns nothing
		n.Release(a)
		if p.slots[5].c.Load() != a || len(p.idle) != 1 || p.idle[0] != b {
			t.Fatalf("slot 5 holds %v and the list %v, want a there and b here", p.slots[5].c.Load(), p.idle)
		}
		if got, ok := p.Acquire(5); !ok || got != a {
			t.Fatal("stripe 5 did not get its slot's resident first")
		}
		if got, ok := p.Acquire(5); !ok || got != b {
			t.Fatal("stripe 5 did not fall through to the list")
		}
		if _, ok := p.Acquire(5); ok || p.Idle() != 0 {
			t.Fatal("a third container appeared")
		}
	})

	t.Run("Idle counts residents and no one cold-starts beside one", func(t *testing.T) {
		_, n, p := setup(0)
		c := n.StartContainer("f", spec)
		p.Release(c, 2)
		if p.Idle() != 1 {
			t.Fatalf("Idle() = %d with one container in a slot", p.Idle())
		}
		if got, ok := p.Acquire(6); !ok || got != c { // another stripe, empty list
			t.Fatal("stripe 6 missed although stripe 2's slot held an idle container")
		}
		p.Release(c, 2)
		if got, ok := n.AcquireIdle("f"); !ok || got != c {
			t.Fatal("AcquireIdle missed although a slot held an idle container")
		}
		if c.Invocations() != 3 || n.ColdStarts() != 1 {
			t.Fatalf("%d invocations, %d cold starts, want 3 and 1", c.Invocations(), n.ColdStarts())
		}
	})

	t.Run("the list is LIFO and a reap keeps the survivors' order", func(t *testing.T) {
		clk, n, p := setup(10 * time.Millisecond)
		var cs []*Container
		for i := 0; i < 4; i++ {
			cs = append(cs, n.StartContainer("f", spec))
		}
		n.Release(cs[0])
		clk.Advance(8 * time.Millisecond)
		for _, c := range cs[1:] {
			n.Release(c)
		}
		clk.Advance(5 * time.Millisecond) // only cs[0] is past its keep-alive
		if reaped := n.ReapIdle(); reaped != 1 || cs[0].State() != Recycled {
			t.Fatalf("reaped %d, want the oldest only", reaped)
		}
		for i := 3; i >= 1; i-- {
			if got, ok := n.AcquireIdle("f"); !ok || got != cs[i] {
				t.Fatalf("pop %d: got %v, want %s (last released first)", 4-i, got, cs[i].ID)
			}
		}
		if _, ok := p.Acquire(0); ok {
			t.Fatal("the recycled container was handed out")
		}
		if want := 3 * spec.MemoryBytes(); n.MemInUse() != want || n.Containers("f") != 3 {
			t.Fatalf("MemInUse %d, Containers %d, want %d and 3", n.MemInUse(), n.Containers("f"), want)
		}
	})
}
