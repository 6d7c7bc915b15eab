package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEnv(1)
	var woke time.Duration
	e.Go(func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	end := e.Run()
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Fatalf("env ended at %v, want 5s", end)
	}
}

func TestNegativeSleepIsImmediate(t *testing.T) {
	e := NewEnv(1)
	e.Go(func(p *Proc) { p.Sleep(-time.Second) })
	if end := e.Run(); end != 0 {
		t.Fatalf("ended at %v, want 0", end)
	}
}

func TestDeterministicOrderingAtSameTime(t *testing.T) {
	run := func() []int {
		e := NewEnv(7)
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			e.Go(func(p *Proc) {
				p.Sleep(time.Second)
				order = append(order, i)
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order: %v vs %v", a, b)
		}
		if a[i] != i {
			t.Fatalf("expected spawn order, got %v", a)
		}
	}
}

func TestGoFromInsideProcess(t *testing.T) {
	e := NewEnv(1)
	var childRan bool
	e.Go(func(p *Proc) {
		p.Sleep(time.Second)
		e.Go(func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
		})
	})
	end := e.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
	if end != 2*time.Second {
		t.Fatalf("ended at %v, want 2s", end)
	}
}

func TestEventWaitAndTrigger(t *testing.T) {
	e := NewEnv(1)
	ev := NewEvent(e)
	var got any
	var at time.Duration
	e.Go(func(p *Proc) {
		got = p.Wait(ev)
		at = p.Now()
	})
	e.Go(func(p *Proc) {
		p.Sleep(3 * time.Second)
		ev.Trigger("hello")
	})
	e.Run()
	if got != "hello" || at != 3*time.Second {
		t.Fatalf("got %v at %v", got, at)
	}
}

func TestEventAlreadyTriggered(t *testing.T) {
	e := NewEnv(1)
	ev := NewEvent(e)
	ev.Trigger(42)
	var got any
	e.Go(func(p *Proc) { got = p.Wait(ev) })
	e.Run()
	if got != 42 {
		t.Fatalf("got %v, want 42", got)
	}
	if !ev.Triggered() {
		t.Fatal("event state wrong")
	}
}

func TestEventDoubleTriggerKeepsFirstValue(t *testing.T) {
	e := NewEnv(1)
	ev := NewEvent(e)
	ev.Trigger(1)
	ev.Trigger(2)
	var got any
	e.Go(func(p *Proc) { got = p.Wait(ev) })
	e.Run()
	if got != 1 {
		t.Fatalf("value = %v, want 1", got)
	}
}

func TestEventManyWaiters(t *testing.T) {
	e := NewEnv(1)
	ev := NewEvent(e)
	count := 0
	for i := 0; i < 20; i++ {
		e.Go(func(p *Proc) {
			p.Wait(ev)
			count++
		})
	}
	e.Go(func(p *Proc) {
		p.Sleep(time.Second)
		ev.Trigger(nil)
	})
	e.Run()
	if count != 20 {
		t.Fatalf("count = %d, want 20", count)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue()
	var got []int
	e.Go(func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.TryPut(i)
			p.Sleep(time.Millisecond)
		}
	})
	e.Go(func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, p.Get(q).(int))
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("got %d items", len(got))
	}
}

func TestQueueBlockingGet(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue()
	var at time.Duration
	e.Go(func(p *Proc) {
		p.Get(q)
		at = p.Now()
	})
	e.Go(func(p *Proc) {
		p.Sleep(4 * time.Second)
		q.TryPut(1)
	})
	e.Run()
	if at != 4*time.Second {
		t.Fatalf("consumer resumed at %v", at)
	}
}

func TestQueueTryPutTryGet(t *testing.T) {
	q := NewQueue()
	q.TryPut(1)
	v, ok := q.TryGet()
	if !ok || v != 1 {
		t.Fatalf("TryGet = %v/%v", v, ok)
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
}

func TestQueueGetTimeout(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue()
	got := true
	var at time.Duration
	e.Go(func(p *Proc) {
		_, got = p.GetTimeout(q, 2*time.Second)
		at = p.Now()
	})
	e.Run()
	if got || at != 2*time.Second {
		t.Fatalf("got=%v at=%v", got, at)
	}
}

func TestQueueGetTimeoutItemWins(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue()
	var item any
	var got bool
	e.Go(func(p *Proc) { item, got = p.GetTimeout(q, 10*time.Second) })
	e.Go(func(p *Proc) { p.Sleep(time.Second); q.TryPut("v") })
	e.Run()
	if !got || item != "v" {
		t.Fatalf("got=%v item=%v", got, item)
	}
}

func TestQueueHandoffToWaitingGetter(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue()
	var got any
	e.Go(func(p *Proc) { got = p.Get(q) })
	e.Go(func(p *Proc) {
		p.Sleep(time.Second)
		q.TryPut("direct")
	})
	e.Run()
	if got != "direct" {
		t.Fatalf("got %v", got)
	}
	if q.Len() != 0 {
		t.Fatal("item should have been handed to getter, not buffered")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEnv(1)
	var lateRan bool
	e.Go(func(p *Proc) {
		p.Sleep(10 * time.Second)
		lateRan = true
	})
	e.RunUntil(5 * time.Second)
	if lateRan {
		t.Fatal("event beyond deadline ran")
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("now = %v, want 5s", e.Now())
	}
	e.Run()
	if !lateRan {
		t.Fatal("event did not run after full Run")
	}
}

func TestRandDeterminism(t *testing.T) {
	seq := func(seed int64) []int64 {
		e := NewEnv(seed)
		var out []int64
		e.Go(func(p *Proc) {
			for i := 0; i < 5; i++ {
				out = append(out, e.Rand().Int63())
			}
		})
		e.Run()
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := seq(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

// Property: for any set of sleep durations, the environment finishes at the
// max duration and every process wakes exactly at its own deadline.
func TestSleepProperty(t *testing.T) {
	f := func(ms []uint16) bool {
		e := NewEnv(1)
		woke := make([]time.Duration, len(ms))
		var max time.Duration
		for i, m := range ms {
			i := i
			d := time.Duration(m) * time.Millisecond
			if d > max {
				max = d
			}
			e.Go(func(p *Proc) {
				p.Sleep(d)
				woke[i] = p.Now()
			})
		}
		end := e.Run()
		if len(ms) > 0 && end != max {
			return false
		}
		for i, m := range ms {
			if woke[i] != time.Duration(m)*time.Millisecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue preserves FIFO order for any number of items.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(n uint8) bool {
		e := NewEnv(1)
		q := NewQueue()
		count := int(n%64) + 1
		var got []int
		e.Go(func(p *Proc) {
			for i := 0; i < count; i++ {
				q.TryPut(i)
			}
		})
		e.Go(func(p *Proc) {
			for i := 0; i < count; i++ {
				v := p.Get(q)
				got = append(got, v.(int))
			}
		})
		e.Run()
		if len(got) != count {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
