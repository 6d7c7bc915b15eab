package main

import (
	"math"
	"math/bits"
	"slices"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest element with at least q·n elements at or below it. An empty
// slice yields 0.
func percentile[T int32 | int64](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(rank, 0), n-1)]
}

// median returns the middle of vals (mean of the two middle elements for an
// even count) without reordering the caller's slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// spanGap is the tiling check of one request: the part of its latency the
// critical-path spans do not cover. Spans are clamped at zero first — a
// consumer that started before its producer's Put returned overlaps it, and
// a negative span would hide exactly that much uncovered time elsewhere.
func spanGap(latency int64, spans ...int64) int64 {
	for _, s := range spans {
		latency -= max(s, 0)
	}
	return latency
}

// hist is a log-linear histogram of non-negative nanosecond values: 64
// linear sub-buckets per power of two, so a quantile read is within 0.8% of
// the exact sample. The traced run folds every span of every request into
// per-client hists (fixed memory, no sampling) and merges them at the end.
type hist struct {
	counts [histBuckets]int64
	n      int64
}

const (
	histSubBits = 6
	histBuckets = (64 - histSubBits) << histSubBits
)

func histBucket(v int64) int {
	if v < 1<<histSubBits {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return (e+1)<<histSubBits + int(v>>uint(e)) - 1<<histSubBits
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 1<<histSubBits {
		return float64(i)
	}
	e := i>>histSubBits - 1
	low := int64(i&(1<<histSubBits-1)+1<<histSubBits) << uint(e)
	return float64(low) + float64(int64(1)<<uint(e))/2
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	var cum int64
	for i, c := range h.counts {
		if cum += c; cum >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}
