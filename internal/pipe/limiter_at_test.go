package pipe

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// These tests pin TakeNAt, the charge priced at a reading its caller already
// holds: it reads no clock only for a charge that cannot park from there, it
// parks exactly as TakeN does otherwise, and a stale reading costs the rate
// less than one granularity.

// readCounter is a manual clock counting its readings.
type readCounter struct {
	*clock.Manual
	reads atomic.Int64
}

func (c *readCounter) Now() time.Duration {
	c.reads.Add(1)
	return c.Manual.Now()
}

func TestTakeNAtReadsNoClockForAChargeThatCannotPark(t *testing.T) {
	clk := &readCounter{Manual: clock.NewManual()}
	l := NewLimiter(clk, 1e6) // 1 byte = 1µs
	// 0, the clock's start: a reading like any other, not clock.NoReading.
	at := clk.Manual.Now()
	for i := 0; i < 9; i++ { // 99µs past the reading: under the granularity
		l.TakeNAt(1, 11, at)
	}
	if n := clk.reads.Load(); n != 0 {
		t.Fatalf("%d clock reads for charges that could not park", n)
	}
	// One more byte would reach the granularity from the reading: this charge
	// reads the clock and parks for the whole debt, as TakeN would.
	done := make(chan time.Duration, 1)
	go func() { done <- l.TakeNAt(1, 1, at) }()
	mustPark(t, clk.Manual, nil, "the charge reaching the granularity")
	clk.Advance(100 * time.Microsecond)
	if parked := <-done; parked != 100*time.Microsecond {
		t.Fatalf("parked %v, want the accrued 100µs", parked)
	}
	if n := clk.reads.Load(); n != 2 {
		t.Fatalf("%d clock reads for the parking charge, want 2 (before and after)", n)
	}
}

func TestTakeNAtWithNoReadingIsTakeN(t *testing.T) {
	clk := &readCounter{Manual: clock.NewManual()}
	l := NewLimiter(clk, 1e6)
	l.TakeNAt(1, 10, clock.NoReading)
	if n := clk.reads.Load(); n != 1 {
		t.Fatalf("%d clock reads without a reading, want 1", n)
	}
}

func TestTakeNAtReadsTheClockWhileCreditIsOnTheBooks(t *testing.T) {
	lc := newLateClock(timerMs)
	clk := &readCounter{Manual: lc.Manual}
	l := NewLimiter(lc, 1e6)
	lc.run(func() { l.Take(200) }) // wakes 1ms late: credit
	l.clk = clk
	l.TakeNAt(1, 10, clk.Manual.Now())
	if n := clk.reads.Load(); n != 1 {
		t.Fatalf("%d clock reads with credit on the books, want 1: credit expires by the present", n)
	}
}

// TestTakeNAtStaleReadingRunsAheadLessThanAGranularity: a busy stream whose
// every charge is priced at a reading taken before its caller computed still
// passes no prefix sooner than its wire time less two granularities — one
// more than TakeN's bound.
func TestTakeNAtStaleReadingRunsAheadLessThanAGranularity(t *testing.T) {
	clk := clock.NewManual()
	l := NewLimiter(clk, 1e6)
	start := clk.Now()
	var sent int64
	for i := 0; i < 200; i++ {
		at := clk.Now()
		clk.Advance(time.Duration(i%30) * time.Microsecond) // the caller computes past its reading
		done := make(chan struct{})
		go func() {
			defer close(done)
			l.TakeNAt(1, 90, at)
		}()
		for parked := false; !parked; {
			select {
			case <-done:
				parked = true
			default:
				if clk.Pending() > 0 {
					clk.Advance(time.Microsecond)
				}
			}
		}
		sent += 90
		if floor := costOf(sent, 1e6) - 2*limiterGranularity; clk.Now()-start < floor {
			t.Fatalf("%d bytes passed in %v, sooner than %v", sent, clk.Now()-start, floor)
		}
	}
}
