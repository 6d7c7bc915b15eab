package pipe

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// These tests pin the Limiter's deadline pacing on a clock whose sleepers
// wake late — the timer floor of a real box, made deterministic. The
// limiter's own oversleep must come back as credit (a busy stream achieves
// the configured rate), and must be the only thing that does: from idle no
// prefix beats the rate, idle time is still forgiven, the credit is shared,
// capped and expires, and a clock that wakes on time sees the pre-credit
// limiter exactly.

// lateClock is a clock.Manual whose every sleeper wakes a fixed lateness
// after its deadline. The test drives it: step advances to the earliest
// pending wake-up, run steps until a function returns.
type lateClock struct {
	*clock.Manual
	late time.Duration

	mu    sync.Mutex
	wakes []time.Duration // pending wake-ups (deadline + late)
	parks int
}

func newLateClock(late time.Duration) *lateClock {
	return &lateClock{Manual: clock.NewManual(), late: late}
}

func (c *lateClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.parks++
	c.wakes = append(c.wakes, c.Now()+d+c.late)
	c.mu.Unlock()
	c.Manual.Sleep(d + c.late)
}

func (c *lateClock) parkCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parks
}

// step advances the clock to the earliest pending wake-up. It reports false
// when nothing is parked (or a sleeper is still on its way to the clock).
func (c *lateClock) step() bool {
	c.mu.Lock()
	if len(c.wakes) == 0 || c.Pending() != len(c.wakes) {
		c.mu.Unlock()
		return false
	}
	first := 0
	for i, w := range c.wakes {
		if w < c.wakes[first] {
			first = i
		}
	}
	wake := c.wakes[first]
	c.wakes = append(c.wakes[:first], c.wakes[first+1:]...)
	c.mu.Unlock()
	c.Advance(wake - c.Now())
	return true
}

// run calls fn on its own goroutine and keeps waking its parks until it
// returns.
func (c *lateClock) run(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if !c.step() {
			runtime.Gosched()
		}
	}
}

// mustStep waits for the next parked sleeper and wakes it (late): until
// every sleeper step knows of has parked on the clock.
func mustStep(t *testing.T, c *lateClock) {
	t.Helper()
	for !c.step() {
		c.mu.Lock()
		n := max(len(c.wakes), 1)
		c.mu.Unlock()
		select {
		case <-c.Parked(n):
		case <-time.After(5 * time.Second):
			t.Fatal("no sleeper parked on the clock")
		}
	}
}

// costOf is the limiter's own price of n bytes.
func costOf(n int64, rate float64) time.Duration {
	return time.Duration(float64(n) / rate * float64(time.Second))
}

const (
	tcRate  = 400e6 // the bench container's TC class
	chunk   = DefaultChunkSize
	timerMs = time.Millisecond // the sleep floor of the committing box, rounded
)

func TestCreditSustainsRateUnderLateWakeups(t *testing.T) {
	clk := newLateClock(timerMs)
	l := NewLimiter(clk, tcRate)
	const charges = 1000
	start := clk.Now()
	clk.run(func() {
		for i := 0; i < charges; i++ {
			l.Take(chunk)
		}
	})
	ideal := costOf(charges*chunk, tcRate)
	elapsed := clk.Now() - start
	// Without credit every 164µs charge parks for 164µs + 1ms: ≈14% of the
	// rate. With it the lateness of one park pays for the next charges.
	if got := float64(ideal) / float64(elapsed); got < 0.9 {
		t.Errorf("achieved %.0f%% of the configured rate (%v for %v of wire time), want ≥ 90%%", got*100, elapsed, ideal)
	}
	if elapsed < ideal-limiterGranularity {
		t.Errorf("stream finished in %v, sooner than its wire time %v", elapsed, ideal)
	}
	if parks := clk.parkCount(); parks > charges/4 {
		t.Errorf("%d parks for %d charges, want most charges to ride credit", parks, charges)
	}
}

func TestCreditNeverBeatsRateFromIdle(t *testing.T) {
	for _, late := range []time.Duration{0, 50 * time.Microsecond, timerMs, 10 * time.Millisecond} {
		clk := newLateClock(late)
		l := NewLimiter(clk, tcRate)
		rng := rand.New(rand.NewSource(7))
		start := clk.Now()
		var sent int64
		clk.run(func() {
			for i := 0; i < 2000; i++ {
				n := int64(1 + rng.Intn(2*chunk))
				l.Take(n)
				sent += n
				// Every prefix of the transfer: the bytes so far took at
				// least their wire time, less the unparked debt.
				if floor := costOf(sent, tcRate) - limiterGranularity; clk.Now()-start < floor-time.Duration(i+1) {
					t.Errorf("late=%v: %d bytes passed in %v, sooner than %v", late, sent, clk.Now()-start, floor)
					return
				}
			}
		})
	}
}

func TestCreditExpiresAfterIdleGap(t *testing.T) {
	for _, tc := range []struct {
		gap  time.Duration
		park bool
	}{
		{limiterGranularity - time.Nanosecond, false}, // still the same busy stream
		{limiterGranularity, true},                    // idle: forgiven, credit and all
	} {
		clk := newLateClock(timerMs)
		l := NewLimiter(clk, tcRate)
		clk.run(func() { l.Take(chunk) }) // parks, wakes 1ms late
		clk.Advance(tc.gap)
		done := takeAsync(l, chunk)
		if tc.park {
			mustPark(t, clk.Manual, done, "charge after an idle gap")
			mustStep(t, clk)
			<-done
		} else {
			mustReturn(t, done, "charge within the granularity of the late wake")
		}
	}
}

func TestCreditCappedAfterLongStall(t *testing.T) {
	clk := newLateClock(100 * time.Millisecond)
	l := NewLimiter(clk, 1e6)       // 1 byte = 1µs
	clk.run(func() { l.Take(200) }) // parks 200µs, wakes 100ms late
	capBytes := int64(limiterMaxCredit / time.Microsecond)
	// The cap's worth of bytes passes unpaced, plus the sub-granularity
	// debt any charge may leave unparked — and not one byte more.
	mustReturn(t, takeAsync(l, capBytes+99), "charge covered by the capped credit")
	done := takeAsync(l, 1)
	mustPark(t, clk.Manual, done, "first byte past the capped credit")
	mustStep(t, clk)
	<-done
}

func TestCreditSharedByFIFOTakers(t *testing.T) {
	clk := newLateClock(timerMs)
	l := NewLimiter(clk, 1e6) // 1 byte = 1µs
	a := takeAsync(l, 200)    // deadline 200µs
	mustPark(t, clk.Manual, a, "first taker")
	b := takeAsync(l, 200) // queued behind it: deadline 400µs
	select {
	case <-clk.Parked(2):
	case <-time.After(5 * time.Second):
		t.Fatal("second taker never parked")
	}
	mustStep(t, clk) // a wakes at 1200µs
	<-a
	mustStep(t, clk) // b wakes at 1400µs
	<-b
	// The two wake-ups were late by the same millisecond, not by two: the
	// bucket is 1000µs behind the clock, so 1099 bytes pass unparked and
	// the next one parks.
	mustReturn(t, takeAsync(l, 1099), "charge covered by one lateness")
	done := takeAsync(l, 1)
	mustPark(t, clk.Manual, done, "first byte past one lateness (two credits were granted)")
	mustStep(t, clk)
	<-done
}

// TestZeroLatenessMatchesPreCreditLimiter replays a mixed stream on a clock
// that wakes on time next to a model of the limiter as it was before
// credit existed (next = max(next, now) + cost; park when the wait reaches
// the granularity): every return instant and the park count must agree.
func TestZeroLatenessMatchesPreCreditLimiter(t *testing.T) {
	clk := newLateClock(0)
	l := NewLimiter(clk, tcRate)
	rng := rand.New(rand.NewSource(11))
	start := clk.Now()
	modelNow, modelNext, modelParks := start, start, 0
	clk.run(func() {
		for i := 0; i < 3000; i++ {
			n := int64(1 + rng.Intn(2*chunk))
			if rng.Intn(8) == 0 {
				// The stream pauses: idle link time, forgiven by both.
				gap := time.Duration(rng.Intn(300)) * time.Microsecond
				clk.Advance(gap)
				modelNow += gap
			}
			l.Take(n)
			if modelNext < modelNow {
				modelNext = modelNow
			}
			modelNext += costOf(n, tcRate)
			if modelNext-modelNow >= limiterGranularity {
				modelNow = modelNext
				modelParks++
			}
			if got := clk.Now(); got != modelNow {
				t.Errorf("charge %d returned at +%v, pre-credit limiter at +%v", i, got-start, modelNow-start)
				return
			}
		}
	})
	if got := clk.parkCount(); got != modelParks {
		t.Errorf("%d parks, pre-credit limiter %d", got, modelParks)
	}
}
