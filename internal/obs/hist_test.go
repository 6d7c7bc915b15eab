package obs

import (
	"math"
	"math/bits"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the bucket mapping: bucket i holds
// exactly the values v with bits.Len64(v) == i, so each power-of-two
// boundary lands in the next bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{1025, 11},
		{math.MaxInt64, HistBuckets - 1},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(0, c.v)
		s := h.Snapshot()
		if s.Counts[c.bucket] != 1 || s.Count != 1 {
			got := -1
			for i, n := range s.Counts {
				if n != 0 {
					got = i
				}
			}
			t.Errorf("Observe(%d): want bucket %d, got %d", c.v, c.bucket, got)
		}
		if c.v > 0 && s.Sum != c.v {
			t.Errorf("Observe(%d): sum %d", c.v, s.Sum)
		}
		if c.v > 0 && c.v < BucketBound(HistBuckets-1) {
			if bound := BucketBound(c.bucket); c.v > bound {
				t.Errorf("Observe(%d): value above its bucket bound %d", c.v, bound)
			}
			if c.bucket > 0 && c.v <= BucketBound(c.bucket-1) {
				t.Errorf("Observe(%d): value fits the previous bucket (bound %d)", c.v, BucketBound(c.bucket-1))
			}
		}
	}
	// The mapping is total: every positive value has bits.Len64 in [1,64],
	// clamped into the last bucket.
	if got := bits.Len64(math.MaxUint64); got != 64 {
		t.Fatalf("bits.Len64 sanity: %d", got)
	}
}

// TestHistogramConcurrentObserveSnapshot runs writers against snapshot
// readers; under -race this proves Observe and Snapshot need no external
// locking, and afterwards the totals must balance.
func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	var h Histogram
	const writers = 8
	const perWriter = 5000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				var n int64
				for i := range s.Counts {
					n += s.Counts[i]
				}
				if n != s.Count {
					t.Error("snapshot count does not equal bucket sum")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(uint32(w), int64(i%4096))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("lost observations: count %d, want %d", s.Count, writers*perWriter)
	}
}
