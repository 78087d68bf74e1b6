package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile before it
// may be reported as the tail.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p among
// n sorted samples: the smallest rank whose share of samples at or
// below it reaches p.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples strictly above percentile p's rank.
func beyond(p float64, n int) int { return n - rank(p, n) }

// tailPercentile picks the highest ladder percentile, at most maxP,
// that has at least minBeyond samples above it. When even the median
// has fewer, the median is returned and the caller reports the short
// count. Capping at maxP keeps a workload's tail at one percentile as
// its op rate changes, so two commits are compared like with like.
func tailPercentile(n int, maxP float64) float64 {
	for _, p := range tailLadder {
		if p <= maxP && beyond(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// hdQuantile is the Harrell–Davis estimate of quantile q of sorted: a
// mean of the order statistics weighted by a Beta(q(n+1), (1-q)(n+1))
// density. Unlike a single order statistic it does not jump when two
// neighbouring samples swap places, which matters when the samples are
// a few dozen distinct kinds of op.
func hdQuantile(sorted []float64, q float64) float64 {
	n := float64(len(sorted))
	a, b := q*(n+1), (1-q)*(n+1)
	var est, prev float64
	for i, x := range sorted {
		cur := betaInc(float64(i+1)/n, a, b)
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction.
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(x, a, b) / a
	}
	return 1 - front*betaFrac(1-x, b, a)/b
}

// betaFrac evaluates the continued fraction of I_x(a, b) by the
// modified Lentz method.
func betaFrac(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 500; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-15 {
			break
		}
	}
	return h
}

// latencySummary is the reported view of one latency population.
type latencySummary struct {
	N      int
	P50    float64 // ms
	TailP  float64 // percentile the tail is reported at
	Tail   float64 // ms
	Beyond int     // samples above the tail percentile
}

// summarize reduces op latencies to the median and the tail.
func summarize(lat []time.Duration, maxP float64) latencySummary {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	p := tailPercentile(len(ms), maxP)
	return latencySummary{
		N:      len(ms),
		P50:    percentile(ms, 50),
		TailP:  p,
		Tail:   percentile(ms, p),
		Beyond: beyond(p, len(ms)),
	}
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [start, end) the intervals cover,
// counting overlapping stretches once.
func covered(start, end int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, start), min(iv.end, end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it that its child
// spans cover.
func selfTime(start, end int64, children []interval) int64 {
	return end - start - covered(start, end, children)
}
