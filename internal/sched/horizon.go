package sched

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// DefaultHorizonWindowS is the projection window PredictiveHorizon uses
// when constructed from the registry (All, ByName). CLI surfaces
// override it (fleetsim/fleetctl -window).
const DefaultHorizonWindowS = 30

// horizonEpsW absorbs float rounding when a projected peak sits exactly
// on the cap.
const horizonEpsW = 1e-9

// PredictiveHorizon packs jobs against the power cap *before* it is
// breached: at each admission it projects the fleet's concurrent
// dynamic power demand over the next WindowS seconds from every
// instance's committed queue (Fleet.Timelines) plus the arriving job,
// and only considers placements whose projected peak stays inside the
// cap's dynamic headroom. Among cap-safe placements it picks the
// earliest completion, so — unlike PowerPack, which serializes all hot
// jobs onto one affinity queue regardless of headroom — hot jobs run
// concurrently whenever the projection shows room and stagger in time
// (deferred behind committed work) exactly when they would collide.
// The result is PowerPack's throttle avoidance at a far smaller
// makespan premium.
//
// When every placement breaches within the window, the policy minimizes
// the projected overage (ties toward earliest completion) — the least
// bad breach rather than a blind pick. A zero window, an uncapped
// fleet, or a run without timeline context all degrade to PowerPack,
// whose own uncapped fallback is EarliestCompletion.
type PredictiveHorizon struct {
	// WindowS is the projection horizon in seconds. Zero disables the
	// projection and degrades the policy to PowerPack.
	WindowS float64
}

// Name implements Policy.
func (PredictiveHorizon) Name() string { return "PredictiveHorizon" }

// HorizonWindowS implements HorizonAware: the simulator builds
// Fleet.Timelines only when this is positive.
func (p PredictiveHorizon) HorizonWindowS() float64 { return p.WindowS }

// Place implements Policy.
func (p PredictiveHorizon) Place(job Job, cands []Candidate, fleet Fleet) int {
	if p.WindowS <= 0 || fleet.PowerCapW <= 0 || fleet.Timelines == nil {
		return PowerPack{}.Place(job, cands, fleet)
	}
	headroomW := fleet.PowerCapW - fleet.IdleSumW
	committed := newHorizon(fleet.Timelines, p.WindowS, fleet.TickS)
	defer horizonPool.Put(committed)

	bestSafe, bestUnsafe := -1, -1
	bestSafeEta := math.Inf(1)
	bestOver, bestUnsafeEta := math.Inf(1), math.Inf(1)
	for i, c := range cands {
		// The job starts when the candidate's committed work drains;
		// newHorizon summed it with each segment padded by one tick,
		// because the simulator detects completions at tick
		// boundaries.
		start := committed.drainS[c.Index]
		peak := committed.peakWith(start, float64(job.Iterations)*c.IterTimeS, c.PowerW-c.IdleW)
		over := peak - headroomW
		e := eta(job, c)
		if over <= horizonEpsW {
			if e < bestSafeEta {
				bestSafe, bestSafeEta = i, e
			}
		} else if over < bestOver || (over == bestOver && e < bestUnsafeEta) {
			bestUnsafe, bestOver, bestUnsafeEta = i, over, e
		}
	}
	if bestSafe >= 0 {
		return bestSafe
	}
	return bestUnsafe
}

// ProjectedPeakW returns the peak concurrent dynamic power demand
// within [0, windowS) implied by the committed per-instance timelines
// plus one extra segment — the job under consideration — running at
// extraDynW watts for extraDurS seconds starting at extraStartS. Every
// segment is padded by padS (the integration tick) so the projection
// upper-bounds the simulator's tick-granular start times; demand beyond
// the window is deliberately invisible, which is what makes the policy
// a *horizon* rather than an exact solver. The computation is
// deterministic: breakpoints are summed in time order, and at equal
// times committed ones (in fleet order) precede the extra segment's.
// Only tests call it: FuzzProjectedPeakW and
// TestHorizonMatchesReference hold it, and the per-admission sweep
// PredictiveHorizon runs, to projectedPeakWRef.
func ProjectedPeakW(timelines [][]PowerSegment, extraStartS, extraDurS, extraDynW, windowS, padS float64) float64 {
	h := newHorizon(timelines, windowS, padS)
	defer horizonPool.Put(h)
	return h.peakWith(extraStartS, extraDurS, extraDynW)
}

// breakpoint is a step of dw watts in projected demand at time t.
type breakpoint struct{ t, dw float64 }

// sweepState is a demand sweep's running sum and peak so far.
type sweepState struct{ cur, peak float64 }

// horizon is the committed part of a projection: every committed
// segment's breakpoints inside the window in stable time order, the
// committed-only sweep's state before each of them, and when each
// timeline drains. Place builds it once per admission and sweeps it
// once per candidate, from the candidate's start on.
type horizon struct {
	bps []breakpoint
	// runs holds the index where each time-ordered run of bps starts,
	// recorded as the breakpoints are appended.
	runs []int
	// drainS[k] is timeline k's total padded duration, the time its
	// committed work drains.
	drainS []float64
	// pre[i] is the committed-only sweep's state before bps[i], and
	// pre[len(bps)] its final state.
	pre []sweepState
	// tmp is the merge buffer; it trades places with bps while sorting.
	tmp           []breakpoint
	windowS, padS float64
}

// horizonPool holds horizons between admissions, so steady-state
// placement allocates nothing; the pool releases them at garbage
// collection.
var horizonPool = sync.Pool{New: func() any { return new(horizon) }}

// newHorizon builds the committed horizon in a value from horizonPool;
// the caller puts it back.
func newHorizon(timelines [][]PowerSegment, windowS, padS float64) *horizon {
	h := horizonPool.Get().(*horizon)
	h.windowS, h.padS = windowS, padS
	// The slices grow in locals and are stored back once: a store into
	// the pooled *horizon per breakpoint would pass the write barrier.
	bps, runs, drainS := h.bps[:0], append(h.runs[:0], 0), h.drainS[:0]
	for _, tl := range timelines {
		t := 0.0
		for _, seg := range tl {
			n := len(bps)
			bps = h.add(bps, t, seg.DurationS+padS, seg.DynPowerW)
			// A new run starts where a time falls below its
			// predecessor's. A segment never ends before it starts, so
			// only its start can begin one.
			if n > 0 && n < len(bps) && bps[n].t < bps[n-1].t {
				runs = append(runs, n)
			}
			t += seg.DurationS + padS
		}
		drainS = append(drainS, t)
	}
	h.bps, h.runs, h.drainS = bps, runs, drainS
	h.sortByTime()
	h.sweepPrefix()
	return h
}

// add appends a segment's start and, if it ends inside the window, its
// end. Empty, zero-watt and out-of-window segments add nothing.
func (h *horizon) add(bps []breakpoint, start, dur, dw float64) []breakpoint {
	if dur <= 0 || dw == 0 || start >= h.windowS {
		return bps
	}
	bps = append(bps, breakpoint{start, dw})
	if end := start + dur; end < h.windowS {
		bps = append(bps, breakpoint{end, -dw})
	}
	return bps
}

// sortByTime stable-sorts bps by time with a natural merge sort over
// the recorded runs. Every segment of a timeline starts where the
// previous one ended, so each instance's breakpoints form a run in time
// order (a negative duration splits it in two) and bps is a few runs
// laid end to end. Each pass merges adjacent runs pairwise, the left
// run winning ties, which for finite times is exactly the stable sort's
// order, in ⌈log₂ runs⌉ linear passes. Every pass halves the run count,
// so the loop ends whatever the times are, NaN included.
func (h *horizon) sortByTime() {
	src := h.bps
	dst := slices.Grow(h.tmp[:0], len(src))[:len(src)]
	runs := h.runs
	for len(runs) > 1 {
		merged := 0
		for k := 0; k < len(runs); k += 2 {
			lo, mid, hi := runs[k], len(src), len(src)
			if k+1 < len(runs) {
				mid = runs[k+1]
			}
			if k+2 < len(runs) {
				hi = runs[k+2]
			}
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			runs[merged] = lo
			merged++
		}
		runs = runs[:merged]
		src, dst = dst, src
	}
	h.bps, h.tmp = src, dst
}

// mergeRuns merges the runs a and b into dst, which holds exactly
// both; at equal times a's breakpoints come first.
func mergeRuns(dst, a, b []breakpoint) {
	i, j, k := 0, 0, 0
	for ; i < len(a) && j < len(b); k++ {
		if b[j].t < a[i].t {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// sweepPrefix sweeps the committed breakpoints alone, as peakWith does,
// and records the state before each one.
func (h *horizon) sweepPrefix() {
	bps, pre := h.bps, h.pre[:0]
	var s sweepState
	for i, b := range bps {
		pre = append(pre, s)
		s.cur += b.dw
		if i+1 == len(bps) || bps[i+1].t != b.t {
			if s.cur > s.peak {
				s.peak = s.cur
			}
		}
	}
	h.pre = append(pre, s)
}

// peakWith sweeps the committed breakpoints with one extra padded
// segment merged in and returns the peak demand. At equal times the
// committed breakpoints are summed first, as one stable sort with the
// extra segment appended last would order them, so for finite times
// the peak is the same float to the bit. No extra breakpoint lies
// before the segment's start, so the sweep resumes at the first
// committed breakpoint not before it, from the committed-only state
// there: the groups before it sum exactly as they would with the
// segment. A NaN time leaves the breakpoints without a time order and
// the peak undefined; the only promise then is that the sweep returns.
func (h *horizon) peakWith(startS, durS, dynW float64) float64 {
	var buf [2]breakpoint
	extra := h.add(buf[:0], startS, durS+h.padS, dynW)
	bps := h.bps
	i := sort.Search(len(bps), func(k int) bool { return !(bps[k].t < startS) })
	cur, peak := h.pre[i].cur, h.pre[i].peak
	j := 0
	for i < len(bps) || j < len(extra) {
		// Each group's first breakpoint is consumed unconditionally, so
		// a NaN time, which equals nothing, still advances the sweep.
		var t float64
		if j < len(extra) && (i == len(bps) || extra[j].t < bps[i].t) {
			t = extra[j].t
			cur += extra[j].dw
			j++
		} else {
			t = bps[i].t
			cur += bps[i].dw
			i++
		}
		for ; i < len(bps) && bps[i].t == t; i++ {
			cur += bps[i].dw
		}
		for ; j < len(extra) && extra[j].t == t; j++ {
			cur += extra[j].dw
		}
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
