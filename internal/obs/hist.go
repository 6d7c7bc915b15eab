package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the fixed bucket count of every Histogram. Bucket i holds
// values v with bits.Len64(v) == i — the log2-spaced range [2^(i-1), 2^i).
// Bucket 0 holds v <= 0 and the last bucket absorbs everything above
// 2^(HistBuckets-2). 48 buckets cover nanosecond latencies up to ~39 hours,
// far beyond any stage this engine times.
const HistBuckets = 48

// histLane is one stripe of a Histogram: its own bucket vector and sum,
// padded so neighbouring lanes never false-share their tails.
type histLane struct {
	counts [HistBuckets]atomic.Int64
	sum    atomic.Int64
	_      [56]byte
}

// Histogram is a fixed-bucket log2-spaced latency histogram sharded over
// padded lanes like Counter. Observe is two atomic adds on the caller's
// lane — cheap enough to stay on in the hot path. The zero value is ready
// to use.
type Histogram struct {
	lanes [NumStripes]histLane
}

// Observe records v (typically nanoseconds) on the lane picked by stripe.
// Negative values clamp into bucket 0.
func (h *Histogram) Observe(stripe uint32, v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
		if i >= HistBuckets {
			i = HistBuckets - 1
		}
	}
	l := &h.lanes[stripe&(NumStripes-1)]
	l.counts[i].Add(1)
	l.sum.Add(v)
}

// BucketBound returns the inclusive upper bound of bucket i: values in
// bucket i are <= BucketBound(i). The last bucket is unbounded.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= HistBuckets-1 {
		return math.MaxInt64
	}
	return (int64(1) << uint(i)) - 1
}

// HistSnapshot is a point-in-time copy of a Histogram, merged across
// lanes. Counts is a fixed array so snapshots copy by value and merge by
// element-wise addition.
type HistSnapshot struct {
	Counts [HistBuckets]int64 `json:"counts"`
	Sum    int64              `json:"sum"`
	Count  int64              `json:"count"`
}

// Snapshot sums the lanes (torn read, see package doc).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for l := range h.lanes {
		lane := &h.lanes[l]
		for i := range lane.counts {
			s.Counts[i] += lane.counts[i].Load()
		}
		s.Sum += lane.sum.Load()
	}
	for i := range s.Counts {
		s.Count += s.Counts[i]
	}
	return s
}
