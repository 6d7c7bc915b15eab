package clock

import (
	"slices"
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
	parked(t, m, 1)
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
	parked(t, m, n)
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

// parked blocks until n sleepers are parked on m.
func parked(t *testing.T, m *Manual, n int) {
	t.Helper()
	select {
	case <-m.Parked(n):
	case <-time.After(5 * time.Second):
		t.Fatalf("%d of %d sleepers parked", m.Pending(), n)
	}
}

// sleepers parks one goroutine per deadline on m and returns a channel each
// sends its deadline on when it wakes.
func sleepers(t *testing.T, m *Manual, ds ...time.Duration) <-chan time.Duration {
	t.Helper()
	woke := make(chan time.Duration, len(ds))
	for _, d := range ds {
		go func(d time.Duration) {
			m.Sleep(d)
			woke <- d
		}(d)
	}
	parked(t, m, len(ds))
	return woke
}

// woken receives n wake-ups from woke and returns them in order received.
func woken(t *testing.T, woke <-chan time.Duration, n int) []time.Duration {
	t.Helper()
	var got []time.Duration
	for len(got) < n {
		select {
		case d := <-woke:
			got = append(got, d)
		case <-time.After(5 * time.Second):
			t.Fatalf("woke %v, want %d sleepers", got, n)
		}
	}
	return got
}

// TestManualStepWakesOnlyTheEarliest: Step moves the clock to the earliest
// deadline and wakes every sleeper due then — two at one instant — and no
// other; the next Step takes the next deadline, and a Step with nothing
// parked moves nothing.
func TestManualStepWakesOnlyTheEarliest(t *testing.T) {
	m := NewManual()
	m.Advance(time.Second)
	woke := sleepers(t, m, 3*time.Second, time.Second, time.Second)
	if got, want := m.Deadlines(), []time.Duration{2 * time.Second, 2 * time.Second, 4 * time.Second}; !slices.Equal(got, want) {
		t.Fatalf("Deadlines = %v, want %v", got, want)
	}
	if !m.Step() {
		t.Fatal("Step with three sleepers reported nothing parked")
	}
	if now := m.Now(); now != 2*time.Second {
		t.Fatalf("first Step moved the clock to %v, want the earliest deadline 2s", now)
	}
	if got := woken(t, woke, 2); got[0] != time.Second || got[1] != time.Second {
		t.Fatalf("first Step woke %v, want the two 1s sleepers", got)
	}
	select {
	case d := <-woke:
		t.Fatalf("first Step woke the %v sleeper as well", d)
	default:
	}
	if n := m.Pending(); n != 1 {
		t.Fatalf("Pending = %d after the first Step, want 1", n)
	}
	if !m.Step() || m.Now() != 4*time.Second {
		t.Fatalf("second Step moved the clock to %v, want 4s", m.Now())
	}
	if got := woken(t, woke, 1); got[0] != 3*time.Second {
		t.Fatalf("second Step woke %v, want the 3s sleeper", got)
	}
	if m.Step() || m.Now() != 4*time.Second || len(m.Deadlines()) != 0 {
		t.Fatalf("Step with nothing parked moved the clock to %v", m.Now())
	}
}

// TestManualParkedClosesAtTheNthSleeper: Parked(n) is closed at once when n
// sleepers are parked, and otherwise by the park of the n-th — not the
// n-1-th — whether it sleeps or waits on After; a step that wakes sleepers
// closes nothing.
func TestManualParkedClosesAtTheNthSleeper(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	m := NewManual()
	if !closed(m.Parked(0)) {
		t.Fatal("Parked(0) is open")
	}
	two, three := m.Parked(2), m.Parked(3)
	woke := sleepers(t, m, time.Second)
	if closed(two) || closed(three) {
		t.Fatal("one sleeper closed Parked(2) or Parked(3)")
	}
	m.Step()
	woken(t, woke, 1)
	sleepers(t, m, time.Second)
	if closed(two) {
		t.Fatal("Parked(2) closed with one sleeper parked after one woke")
	}
	m.After(time.Hour)
	if !closed(two) || closed(three) {
		t.Fatalf("second sleeper: Parked(2) closed %v, Parked(3) closed %v, want true and false", closed(two), closed(three))
	}
	if !closed(m.Parked(2)) {
		t.Fatal("Parked(2) with two sleepers parked is open")
	}
}

// TestManualAdvanceWakesEveryDueSleeper: Advance still moves by its argument
// and wakes every sleeper due by then, however many deadlines that spans,
// leaving the rest parked.
func TestManualAdvanceWakesEveryDueSleeper(t *testing.T) {
	m := NewManual()
	woke := sleepers(t, m, time.Second, 2*time.Second, 2*time.Second, 5*time.Second)
	m.Advance(3 * time.Second)
	if now := m.Now(); now != 3*time.Second {
		t.Fatalf("Now = %v after Advance(3s), want 3s", now)
	}
	woken(t, woke, 3)
	if got := m.Deadlines(); !slices.Equal(got, []time.Duration{5 * time.Second}) {
		t.Fatalf("Deadlines = %v after Advance(3s), want [5s]", got)
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
