package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestBucketBoundariesPartitionTheRange(t *testing.T) {
	// Buckets must tile [0, MaxInt64] exactly: each lower bound is one
	// past the previous upper, and the endpoints are covered.
	if BucketLower(0) != 0 {
		t.Fatalf("BucketLower(0) = %d, want 0", BucketLower(0))
	}
	if BucketUpper(NumBuckets-1) != math.MaxInt64 {
		t.Fatalf("last upper = %d, want MaxInt64", BucketUpper(NumBuckets-1))
	}
	for i := 1; i < NumBuckets; i++ {
		if BucketLower(i) != BucketUpper(i-1)+1 {
			t.Fatalf("gap between bucket %d (upper %d) and %d (lower %d)",
				i-1, BucketUpper(i-1), i, BucketLower(i))
		}
	}
}

func TestBucketIndexAgreesWithBoundaries(t *testing.T) {
	r := rng.New(0xB0C4E7)
	check := func(v int64) {
		i := bucketIndex(v)
		if v < BucketLower(i) || v > BucketUpper(i) {
			t.Fatalf("value %d landed in bucket %d = [%d, %d]", v, i, BucketLower(i), BucketUpper(i))
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	// Edges of every octave plus random probes across the full range.
	for e := 4; e <= 62; e++ {
		base := int64(1) << uint(e)
		for _, v := range []int64{base - 1, base, base + 1} {
			if v > 0 {
				check(v)
			}
		}
	}
	check(math.MaxInt64)
	for n := 0; n < 20000; n++ {
		check(int64(r.Uint64() >> 1))
	}
}

func TestQuantileErrorBound(t *testing.T) {
	// Nearest-rank quantiles from the histogram must bracket the exact
	// sorted-sample statistic: never below it, never more than 25%
	// above (exact below 16). This is the bound loadgen relies on.
	r := rng.New(0x51AB)
	for trial := 0; trial < 20; trial++ {
		h := NewLatencyHistogram()
		n := 100 + int(r.Uint64()%5000)
		values := make([]int64, n)
		for i := range values {
			// Mix magnitudes: sub-linear, mid-range and large values.
			switch i % 3 {
			case 0:
				values[i] = int64(r.Uint64() % 16)
			case 1:
				values[i] = int64(r.Uint64() % 100000)
			default:
				values[i] = int64(r.Uint64() % (1 << 40))
			}
			h.Observe(values[i])
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
		snap := h.Snapshot()
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := values[rank-1]
			est := snap.Quantile(q)
			if est < exact {
				t.Fatalf("trial %d q=%v: estimate %d below exact %d", trial, q, est, exact)
			}
			if float64(est) > 1.25*float64(exact)+1 {
				t.Fatalf("trial %d q=%v: estimate %d exceeds exact %d by more than 25%%", trial, q, est, exact)
			}
		}
	}
}

func TestQuantileMatchesExactSortWithinBucketError(t *testing.T) {
	// The loadgen contract stated directly: p50/p95/p99 from the shared
	// histogram agree with the ad-hoc exact sort within bucket width.
	r := rng.New(0x10AD6E)
	h := NewLatencyHistogram()
	lat := make([]time.Duration, 2000)
	for i := range lat {
		lat[i] = time.Duration(50_000 + r.Uint64()%10_000_000) // 50µs–10ms
		h.ObserveDuration(lat[i])
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	snap := h.Snapshot()
	for _, q := range []float64{0.50, 0.95, 0.99} {
		rank := int(math.Ceil(q * float64(len(lat))))
		exact := lat[rank-1]
		est := time.Duration(snap.Quantile(q))
		lo, hi := exact, time.Duration(1.25*float64(exact))
		if est < lo || est > hi {
			t.Errorf("q=%v: histogram %v outside [%v, %v] (exact sort %v)", q, est, lo, hi, exact)
		}
	}
}

func TestCumulativeLEExactAtPowersOfTwo(t *testing.T) {
	r := rng.New(0xC0DE)
	h := NewHistogram()
	var values []int64
	for i := 0; i < 5000; i++ {
		v := int64(r.Uint64() % (1 << 20))
		values = append(values, v)
		h.Observe(v)
	}
	snap := h.Snapshot()
	for k := 0; k <= 20; k++ {
		bound := int64(1) << uint(k)
		var want int64
		for _, v := range values {
			if v <= bound {
				want++
			}
		}
		if got := snap.CumulativeLE(bound); got != want {
			t.Fatalf("CumulativeLE(2^%d) = %d, want exactly %d", k, got, want)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewLatencyHistogram()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.Derive(0xFEED, string(rune('a'+w)))
			for i := 0; i < per; i++ {
				h.Observe(int64(r.Uint64() % 1e6))
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*per {
		t.Fatalf("count %d, want %d", snap.Count, workers*per)
	}
	var sum int64
	for _, c := range snap.Counts {
		sum += c
	}
	if sum != snap.Count {
		t.Fatalf("bucket sum %d != count %d", sum, snap.Count)
	}
}
