package sched

import (
	"math"
	"slices"
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

	bestSafe, bestUnsafe := -1, -1
	bestSafeEta := math.Inf(1)
	bestOver, bestUnsafeEta := math.Inf(1), math.Inf(1)
	for i, c := range cands {
		// The job starts when the candidate's committed work drains;
		// each committed segment is padded by one tick because the
		// simulator detects completions at tick boundaries.
		start := 0.0
		for _, seg := range fleet.Timelines[c.Index] {
			start += seg.DurationS + fleet.TickS
		}
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
func ProjectedPeakW(timelines [][]PowerSegment, extraStartS, extraDurS, extraDynW, windowS, padS float64) float64 {
	return newHorizon(timelines, windowS, padS).peakWith(extraStartS, extraDurS, extraDynW)
}

// breakpoint is a step of dw watts in projected demand at time t.
type breakpoint struct{ t, dw float64 }

// horizon is the committed part of a projection: every committed
// segment's breakpoints inside the window, stable-sorted by time.
// Place builds it once per admission and sweeps it once per candidate.
type horizon struct {
	bps           []breakpoint
	windowS, padS float64
}

func newHorizon(timelines [][]PowerSegment, windowS, padS float64) horizon {
	n := 0
	for _, tl := range timelines {
		n += 2 * len(tl)
	}
	h := horizon{bps: make([]breakpoint, 0, n), windowS: windowS, padS: padS}
	for _, tl := range timelines {
		t := 0.0
		for _, seg := range tl {
			h.bps = h.add(h.bps, t, seg.DurationS+padS, seg.DynPowerW)
			t += seg.DurationS + padS
		}
	}
	slices.SortStableFunc(h.bps, func(a, b breakpoint) int {
		switch {
		case a.t < b.t:
			return -1
		case b.t < a.t:
			return 1
		}
		return 0
	})
	return h
}

// add appends a segment's start and, if it ends inside the window, its
// end. Empty, zero-watt and out-of-window segments add nothing.
func (h horizon) add(bps []breakpoint, start, dur, dw float64) []breakpoint {
	if dur <= 0 || dw == 0 || start >= h.windowS {
		return bps
	}
	bps = append(bps, breakpoint{start, dw})
	if end := start + dur; end < h.windowS {
		bps = append(bps, breakpoint{end, -dw})
	}
	return bps
}

// peakWith sweeps the committed breakpoints with one extra padded
// segment merged in and returns the peak demand. At equal times the
// committed breakpoints are summed first, as one stable sort with the
// extra segment appended last would order them, so the peak is the
// same float to the bit.
func (h horizon) peakWith(startS, durS, dynW float64) float64 {
	extra := h.add(make([]breakpoint, 0, 2), startS, durS+h.padS, dynW)
	bps := h.bps
	var cur, peak float64
	i, j := 0, 0
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
