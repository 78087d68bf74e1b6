package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: values 0..15 get unit-wide buckets; every value v ≥ 16
// falls in the octave [2^e, 2^(e+1)) with e = floor(log2 v), split into
// four equal sub-buckets of width 2^(e-2). The boundaries are pure
// functions of the index — no configuration, no state — which is what
// makes quantile estimates deterministic functions of the counts.
// Worst-case relative quantile error is the sub-bucket width over its
// lower bound: 2^(e-2)/2^e = 25%.
const (
	histLinear  = 16 // unit-wide buckets for 0..15
	histSubBits = 2  // log2 of sub-buckets per octave
	histSub     = 1 << histSubBits
	histMinExp  = 4  // first octave: [16, 32)
	histMaxExp  = 62 // last octave holds everything up to MaxInt64

	// NumBuckets is the fixed bucket count of every Histogram.
	NumBuckets = histLinear + (histMaxExp-histMinExp+1)*histSub
)

// bucketIndex maps a non-negative value to its bucket. Negative values
// clamp to bucket 0 (durations can go backwards under clock
// adjustments; losing them to bucket 0 is better than panicking).
func bucketIndex(v int64) int {
	if v < histLinear {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int((uint64(v) >> (uint(e) - histSubBits)) & (histSub - 1))
	return histLinear + (e-histMinExp)*histSub + sub
}

// BucketLower returns the smallest value that lands in bucket i.
func BucketLower(i int) int64 {
	if i < histLinear {
		return int64(i)
	}
	j := i - histLinear
	e := uint(histMinExp + j/histSub)
	sub := int64(j % histSub)
	return int64(1)<<e + sub<<(e-histSubBits)
}

// BucketUpper returns the largest value that lands in bucket i.
func BucketUpper(i int) int64 {
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	if i < histLinear {
		return int64(i)
	}
	return BucketLower(i+1) - 1
}

// Histogram is a fixed-boundary log-bucketed distribution safe for
// concurrent Observe. The zero value is NOT usable — construct with
// NewHistogram or NewLatencyHistogram so the exposition scale is set.
type Histogram struct {
	scale float64
	count atomic.Int64
	sum   atomic.Int64

	counts [NumBuckets]atomic.Int64
}

// NewHistogram returns a histogram over unit-less integer values
// (sizes, widths, counts). Prometheus exposition renders the raw
// values.
func NewHistogram() *Histogram { return &Histogram{scale: 1} }

// NewLatencyHistogram returns a histogram whose observations are
// nanoseconds; Prometheus exposition divides by 1e9 so the rendered
// unit is seconds, per convention.
func NewLatencyHistogram() *Histogram { return &Histogram{scale: 1e9} }

// Observe records one value. It is two-and-a-bit atomic adds — cheap
// enough for every request on the hot path.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Snapshot copies the current counts. Concurrent Observes may land
// between bucket reads, so a snapshot is only guaranteed internally
// consistent once writers have quiesced; totals never go backwards.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Scale: h.scale,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's state. The
// zero value is an empty snapshot with Scale 0.
type HistogramSnapshot struct {
	// Scale is the exposition divisor: 1e9 for a NewLatencyHistogram,
	// whose nanoseconds are exposed as seconds, 1 for a NewHistogram.
	Scale float64
	// Count and Sum are the observation count and raw-value sum.
	Count, Sum int64
	// Counts holds per-bucket observation counts; boundaries come from
	// BucketLower / BucketUpper.
	Counts [NumBuckets]int64
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by nearest rank:
// it returns the upper bound of the bucket holding the rank-⌈q·n⌉
// observation. The estimate never undershoots the exact order
// statistic and overshoots by at most 25% (exact below 16).
func (s HistogramSnapshot) Quantile(q float64) int64 {
	n := s.Count
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Counts[i]
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// CumulativeLE counts observations in buckets wholly at or below
// bound. When bound is a power of two (or below histLinear) it aligns
// with a bucket edge and the count is exact — which is why the
// Prometheus exposition uses power-of-two `le` boundaries.
func (s HistogramSnapshot) CumulativeLE(bound int64) int64 {
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		if BucketUpper(i) > bound {
			break
		}
		cum += s.Counts[i]
	}
	return cum
}
