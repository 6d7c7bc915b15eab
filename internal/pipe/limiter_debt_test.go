package pipe

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// These tests pin the Limiter's pacing-debt accumulator at its boundaries
// (the kernel-TC-granularity semantics): sub-100µs charges accrue in the
// bucket instead of parking on a timer, long idle forgets unpaid
// micro-debt, and a zero rate never blocks. All on the manual clock, so
// every deadline is asserted exactly.

// takeAsync runs l.Take(n) in a goroutine and reports a channel that closes
// when it returns.
func takeAsync(l *Limiter, n int64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Take(n)
	}()
	return done
}

// mustReturn fails the test unless Take already returned (i.e. it did not
// park on the clock).
func mustReturn(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Take blocked, want immediate return", what)
	}
}

// mustPark waits until the goroutine behind done is parked on the manual
// clock.
func mustPark(t *testing.T, clk *clock.Manual, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-clk.Parked(1):
	case <-done:
		t.Fatalf("%s: Take returned, want it parked on the clock", what)
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Take never parked", what)
	}
}

func TestLimiterZeroRateNeverBlocksOrAccrues(t *testing.T) {
	clk := clock.NewManual()
	l := NewLimiter(clk, 0)
	mustReturn(t, takeAsync(l, 1<<30), "unlimited take")
	mustReturn(t, takeAsync(l, 1<<30), "second unlimited take")
	if clk.Pending() != 0 || l.Rate() != 0 {
		t.Fatalf("unlimited limiter left %d sleepers, rate %v", clk.Pending(), l.Rate())
	}
}

func TestLimiterSubGranularityDebtAccumulates(t *testing.T) {
	clk := clock.NewManual()
	l := NewLimiter(clk, 1e6) // 1 byte = 1µs; granularity = 100 bytes
	// Two sub-granularity charges accrue 99µs of debt without a single
	// timer park.
	mustReturn(t, takeAsync(l, 50), "50µs charge")
	mustReturn(t, takeAsync(l, 49), "49µs cumulative charge")
	// The third charge tips the bucket to 109µs: it parks for the WHOLE
	// accumulated debt, not just its own 10µs.
	done := takeAsync(l, 10)
	mustPark(t, clk, done, "109µs cumulative charge")
	clk.Advance(108 * time.Microsecond)
	select {
	case <-done:
		t.Fatal("woke before the accumulated 109µs deadline")
	default:
	}
	clk.Advance(2 * time.Microsecond)
	<-done
}

func TestLimiterLongIdleForgetsMicroDebt(t *testing.T) {
	clk := clock.NewManual()
	l := NewLimiter(clk, 1e6)
	// Accrue 99µs of unpaid sub-granularity debt...
	mustReturn(t, takeAsync(l, 99), "99µs charge")
	// ...then go idle long enough for the bucket deadline to pass. The old
	// debt must not combine with fresh charges into a spurious park.
	clk.Advance(time.Second)
	mustReturn(t, takeAsync(l, 50), "post-idle 50µs charge")
	mustReturn(t, takeAsync(l, 49), "post-idle 49µs charge")
	// And the fresh accumulation still works: one more byte over the line
	// parks for exactly the fresh 109µs, nothing inherited.
	done := takeAsync(l, 10)
	mustPark(t, clk, done, "post-idle tipping charge")
	clk.Advance(108 * time.Microsecond)
	select {
	case <-done:
		t.Fatal("post-idle park inherited stale debt (woke early deadline math)")
	default:
	}
	clk.Advance(2 * time.Microsecond)
	<-done
}
