//go:build linux

package pipe

import (
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestIdleLimiterPacesOneHopAtWireTime sends the benchmark's hop — 256 KiB
// as four chunks through a 400 MB/s class — through an idle limiter on the
// wall clock. The lower bound is the limiter's guarantee (n/rate minus one
// granularity); the upper bound holds only on a clock that wakes on time in
// an idle process: each chunk's park rounded up to the runtime's millisecond
// put the median hop at 1.1–2.2 ms.
func TestIdleLimiterPacesOneHopAtWireTime(t *testing.T) {
	const hop = 4 * chunk
	floor := costOf(hop, tcRate) - limiterGranularity // 555 µs
	const ceiling = time.Millisecond
	l := NewLimiter(clock.NewWall(), tcRate)
	took := make([]time.Duration, 20)
	for i := range took {
		// Idle wall time drains the bucket and expires any credit; the test
		// measures the wall clock, so only wall time can.
		time.Sleep(2 * time.Millisecond)
		start := time.Now()
		for sent := 0; sent < hop; sent += chunk {
			l.Take(chunk)
		}
		took[i] = time.Since(start)
		if took[i] < floor {
			t.Fatalf("hop %d passed in %v, sooner than the %v the rate allows", i, took[i], floor)
		}
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if median := took[len(took)/2]; median > ceiling {
		t.Fatalf("median hop took %v, want at most %v (all: %v)", median, ceiling, took)
	}
}
