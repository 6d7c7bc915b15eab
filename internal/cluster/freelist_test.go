package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestIdleFreeListConcurrency hammers AcquireIdle/Release from many
// goroutines and checks the pool invariants stay exact: every acquire
// returns a container in the Busy state that no other goroutine holds, and
// the free-list hands out each live container exactly once. Run with -race
// in CI.
func TestIdleFreeListConcurrency(t *testing.T) {
	const (
		workers = 16
		iters   = 300
		fnCount = 3
	)
	spec := Spec{MemoryMB: 128}
	n := NewNode("w1", Options{})

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
				held.Add(-1)
				n.Release(c)
			}
		}()
	}
	wg.Wait()

	live := n.Containers("")
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

// TestDLUCloseRefusesLateEnqueue pins the container-owned close protocol:
// an enqueue racing a close must be refused, never panic, the daemon must
// drain what was accepted, and a closed plane is never quiet.
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

	// DLUQuiet is one word: open with nothing queued or shipping. A closed
	// plane is never quiet, with nothing queued or born closed.
	g := n.StartContainer("g", Spec{MemoryMB: 128})
	if !g.DLUQuiet() {
		t.Fatal("an open, empty DLU plane is not quiet")
	}
	if _, ok := g.DLUEnqueue(DLUTask{}); !ok || g.DLUQuiet() {
		t.Fatal("a queued task left the plane quiet")
	}
	if g.DLUShipped(); !g.DLUQuiet() {
		t.Fatal("the plane is not quiet once its task shipped")
	}
	n.CloseDLUs()
	for _, c := range []*Container{c, g, n.StartContainer("g", Spec{MemoryMB: 128})} {
		if c.DLUQuiet() {
			t.Fatalf("%s: a closed DLU plane is quiet", c.ID)
		}
		if _, ok := c.DLUEnqueue(DLUTask{}); ok {
			t.Fatalf("%s: enqueue accepted after close", c.ID)
		}
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
// Acquire and Release by stripe and by name, StartContainer and CloseDLUs,
// from 16 goroutines over two functions on one node — and then checks the
// pool invariant directly: every live container is Idle and sits in exactly
// one place, a slot or the list, and Containers counts the live set. Run
// with -race in CI.
func TestFnPoolStorm(t *testing.T) {
	n := NewNode("w1", Options{})
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
				if i%4 == 0 {
					n.Release(c)
				} else {
					pool.Release(c, stripe)
				}
				if i%16 == (w+8)%16 {
					n.CloseDLUs()
				}
			}
		}(w)
	}
	wg.Wait()

	idle := 0
	for fn := range specs {
		p := n.Pool(fn)
		at := residence(p)
		for _, c := range p.live {
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
}

// TestPoolSlotsAndList walks the cases the hand-back slots create, one
// container at a time.
func TestPoolSlotsAndList(t *testing.T) {
	spec := Spec{MemoryMB: 128}
	setup := func() (*Node, *FnPool) {
		n := NewNode("w1", Options{})
		return n, n.Pool("f")
	}

	t.Run("never in a slot and on the list at once", func(t *testing.T) {
		n, p := setup()
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
		n, p := setup()
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
		if c.State() != Busy || p.Idle() != 0 || n.Containers("f") != 1 {
			t.Fatalf("%v, %d idle, %d containers started, want busy, 0 and 1", c.State(), p.Idle(), n.Containers("f"))
		}
	})

	t.Run("the list is LIFO", func(t *testing.T) {
		n, p := setup()
		var cs []*Container
		for i := 0; i < 4; i++ {
			cs = append(cs, n.StartContainer("f", spec))
		}
		for _, c := range cs {
			n.Release(c)
		}
		for i := 3; i >= 0; i-- {
			if got, ok := n.AcquireIdle("f"); !ok || got != cs[i] {
				t.Fatalf("pop %d: got %v, want %s (last released first)", 4-i, got, cs[i].ID)
			}
		}
		if _, ok := p.Acquire(0); ok {
			t.Fatal("a fifth container was handed out")
		}
	})
}
