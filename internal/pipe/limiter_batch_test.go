package pipe

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// These tests pin TakeN — the batched-charge sibling of Take that the DLU
// shipment batcher uses — at the same pacing-debt boundaries as the
// limiter_debt suite: one debt computation per batch, zero rate never
// blocks, sub-granularity batches accrue instead of parking, and a batch
// charge is deadline-equivalent to one Take of the batch total.

// takeNAsync runs l.TakeN(count, n) in a goroutine and reports a channel
// that closes when it returns.
func takeNAsync(l *Limiter, count int, n int64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.TakeN(count, n)
	}()
	return done
}

func TestTakeNZeroRateOrEmptyBatchNeverBlocks(t *testing.T) {
	clk := clock.NewManual()
	l := NewLimiter(clk, 0)
	mustReturn(t, takeNAsync(l, 64, 1<<30), "unlimited batch")
	// A nil limiter and degenerate batches are no-ops too.
	var nilL *Limiter
	nilL.TakeN(8, 1<<20)
	l2 := NewLimiter(clk, 1e6)
	mustReturn(t, takeNAsync(l2, 0, 1<<20), "zero-count batch")
	mustReturn(t, takeNAsync(l2, 8, 0), "zero-byte batch")
	if got := l2.Rate(); got != 1e6 {
		t.Fatalf("rate = %v, want 1e6", got)
	}
}

func TestTakeNDeadlineEquivalentToSummedTake(t *testing.T) {
	// Per-item charging: 4 items x 100 bytes at 1 MB/s, each driven to
	// completion, pace the stream to 400µs total.
	clk := clock.NewManual()
	perItem := NewLimiter(clk, 1e6) // 1 byte = 1µs
	for i := 0; i < 4; i++ {
		done := takeAsync(perItem, 100)
		mustPark(t, clk, done, "per-item charge")
		clk.Advance(100 * time.Microsecond)
		<-done
	}
	if got := clk.Now(); got != 400*time.Microsecond {
		t.Fatalf("per-item stream took %v, want 400µs", got)
	}
	// One TakeN of the same 4-item total on a fresh clock must park for the
	// identical cumulative 400µs — same long-run rate, one debt computation.
	clk2 := clock.NewManual()
	batched := NewLimiter(clk2, 1e6)
	doneN := takeNAsync(batched, 4, 400)
	mustPark(t, clk2, doneN, "batch charge")
	clk2.Advance(399 * time.Microsecond)
	select {
	case <-doneN:
		t.Fatal("batch woke before the 400µs deadline")
	default:
	}
	clk2.Advance(time.Microsecond)
	<-doneN
}

func TestTakeNSubGranularityBatchAccrues(t *testing.T) {
	clk := clock.NewManual()
	l := NewLimiter(clk, 1e6) // granularity = 100 bytes
	// A whole batch under the park threshold returns immediately but leaves
	// its debt in the bucket.
	mustReturn(t, takeNAsync(l, 16, 50), "50µs batch")
	mustReturn(t, takeNAsync(l, 16, 49), "49µs cumulative batch")
	// The next batch tips the bucket: it parks for the WHOLE accumulated
	// 109µs, not just its own 10µs.
	done := takeNAsync(l, 4, 10)
	mustPark(t, clk, done, "tipping batch")
	clk.Advance(108 * time.Microsecond)
	select {
	case <-done:
		t.Fatal("woke before the accumulated 109µs deadline")
	default:
	}
	clk.Advance(2 * time.Microsecond)
	<-done
}

func TestTakeNChargesSubNanosecondItemsOncePooled(t *testing.T) {
	clk := clock.NewManual()
	// At 10 GB/s a 1-byte item is 0.1ns: per-item Take skips it entirely
	// (sub-nanosecond truncation), but a 4096-item batch is 409.6ns of real
	// debt and must reach the bucket.
	l := NewLimiter(clk, 1e10)
	l.Take(1)
	mustReturn(t, takeNAsync(l, 4096, 4096), "pooled sub-ns batch")
	// Tip the bucket over the granularity with one large charge: the batch's
	// 409.6ns must already be on the books, so the park deadline includes it.
	done := takeAsync(l, 2e6) // 200µs at 10 GB/s
	mustPark(t, clk, done, "follow-up charge")
	clk.Advance(200 * time.Microsecond) // covers 200µs but not +409ns
	select {
	case <-done:
		t.Fatal("batch debt was dropped: woke at the unbatched deadline")
	default:
	}
	clk.Advance(time.Microsecond)
	<-done
}
