package clock

import (
	"sync"
	"testing"
	"time"
)

func TestWallNow(t *testing.T) {
	w := NewWall()
	a := w.Now()
	b := w.Now()
	if b < a {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

func TestWallSince(t *testing.T) {
	w := NewWall()
	start := w.Now()
	if d := w.Now() - start; d < 0 {
		t.Fatalf("negative elapsed time: %v", d)
	}
}

func TestWallAfter(t *testing.T) {
	w := NewWall()
	select {
	case <-w.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("After(1ms) did not fire within 1s")
	}
}

func TestManualNowAndAdvance(t *testing.T) {
	m := NewManual()
	if got := m.Now(); got != 0 {
		t.Fatalf("Now = %v, want 0", got)
	}
	m.Advance(5 * time.Second)
	if got := m.Now(); got != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", got)
	}
}

func TestManualAfterFiresAtDeadline(t *testing.T) {
	m := NewManual()
	ch := m.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	m.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired too early")
	default:
	}
	m.Advance(time.Second)
	select {
	case tm := <-ch:
		if got := tm.Sub(time.Time{}); got != 10*time.Second {
			t.Fatalf("fired at reading %v, want 10s", got)
		}
	default:
		t.Fatal("After did not fire at deadline")
	}
}

func TestManualAfterNonPositive(t *testing.T) {
	m := NewManual()
	select {
	case <-m.After(0):
	default:
		t.Fatal("After(0) should fire immediately")
	}
	select {
	case <-m.After(-time.Second):
	default:
		t.Fatal("After(-1s) should fire immediately")
	}
}

func TestManualSleepBlocksUntilAdvance(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		m.Sleep(3 * time.Second)
		close(done)
	}()
	// Wait for the sleeper to register.
	for i := 0; i < 1000 && m.Pending() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if m.Pending() != 1 {
		t.Fatal("sleeper never registered")
	}
	select {
	case <-done:
		t.Fatal("Sleep returned before Advance")
	default:
	}
	m.Advance(3 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep did not return after Advance")
	}
}

func TestManualSleepZeroReturnsImmediately(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		m.Sleep(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep(0) blocked")
	}
}

func TestManualManyWaitersFireInOneAdvance(t *testing.T) {
	m := NewManual()
	const n = 50
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		d := time.Duration(i+1) * time.Second
		go func() {
			defer wg.Done()
			m.Sleep(d)
		}()
	}
	for i := 0; i < 5000 && m.Pending() < n; i++ {
		time.Sleep(time.Millisecond)
	}
	if m.Pending() != n {
		t.Fatalf("registered %d waiters, want %d", m.Pending(), n)
	}
	m.Advance(time.Duration(n) * time.Second)
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("not all sleepers woke after Advance")
	}
}

func TestManualSinceUsesVirtualTime(t *testing.T) {
	m := NewManual()
	m.Advance(100 * time.Second)
	start := m.Now()
	m.Advance(42 * time.Second)
	if got := m.Now() - start; got != 42*time.Second {
		t.Fatalf("elapsed %v, want 42s", got)
	}
}

func TestManualPartialAdvanceKeepsLaterWaiters(t *testing.T) {
	m := NewManual()
	early := m.After(time.Second)
	late := m.After(10 * time.Second)
	m.Advance(time.Second)
	select {
	case <-early:
	default:
		t.Fatal("early waiter did not fire")
	}
	select {
	case <-late:
		t.Fatal("late waiter fired early")
	default:
	}
	if m.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", m.Pending())
	}
	m.Advance(9 * time.Second)
	select {
	case <-late:
	default:
		t.Fatal("late waiter did not fire")
	}
}

// TestWallNowIsOneMonotonicReading: Wall.Now is never negative, so it is
// never NoReading, never runs backwards, and, moved from the epoch, stays on
// time.Now to within a millisecond.
func TestWallNowIsOneMonotonicReading(t *testing.T) {
	w := NewWall()
	prev := w.Now()
	if prev < 0 {
		t.Fatalf("Wall.Now read %v, before the epoch", prev)
	}
	for i := 0; i < 10000; i++ {
		now := w.Now()
		if now < prev {
			t.Fatalf("reading %d: %v precedes %v", i, now, prev)
		}
		prev = now
	}
	for i := 0; i < 100; i++ {
		before := time.Now()
		now := epoch.Add(w.Now())
		after := time.Now()
		if now.Before(before.Add(-time.Millisecond)) || now.After(after.Add(time.Millisecond)) {
			t.Fatalf("Wall.Now %v is more than 1ms outside [%v, %v]", now, before, after)
		}
	}
}

// BenchmarkWallNow is the cost of one engine clock reading next to the
// time.Time reading it replaced (the epoch moved by the same monotonic read)
// and the two time package calls it stands between: time.Now reads the wall
// and the monotonic clock, time.Since the monotonic clock alone.
func BenchmarkWallNow(b *testing.B) {
	var sink time.Time
	b.Run("Wall.Now", func(b *testing.B) {
		w, d := NewWall(), time.Duration(0)
		for i := 0; i < b.N; i++ {
			d += w.Now()
		}
		_ = d
	})
	b.Run("epoch.Add(time.Since)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = epoch.Add(time.Since(epoch))
		}
	})
	b.Run("time.Now", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = time.Now()
		}
	})
	b.Run("time.Since", func(b *testing.B) {
		start, d := time.Now(), time.Duration(0)
		for i := 0; i < b.N; i++ {
			d += time.Since(start)
		}
		_ = d
	})
	_ = sink
}
