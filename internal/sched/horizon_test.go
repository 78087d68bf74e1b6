package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestProjectedPeakWDemandCurve(t *testing.T) {
	// Two instances with committed work, plus a candidate segment:
	//   inst 0: 100 W for [0,2), then 50 W for [2,5)
	//   inst 1:  60 W for [0,4)
	//   extra:   30 W for [1,3)
	// Demand: 160 on [0,1), 190 on [1,2), 140 on [2,3), 110 on [3,4),
	// 50 on [4,5). Peak 190.
	timelines := [][]PowerSegment{
		{{DurationS: 2, DynPowerW: 100}, {DurationS: 3, DynPowerW: 50}},
		{{DurationS: 4, DynPowerW: 60}},
	}
	if got := ProjectedPeakW(timelines, 1, 2, 30, 10, 0); got != 190 {
		t.Errorf("peak = %v, want 190", got)
	}
	// A shorter window truncates the sweep: demand past the window is
	// invisible, but segments straddling it still count.
	if got := ProjectedPeakW(timelines, 1, 2, 30, 1.5, 0); got != 190 {
		t.Errorf("peak within [0,1.5) = %v, want 190", got)
	}
	if got := ProjectedPeakW(timelines, 1, 2, 30, 0.5, 0); got != 160 {
		t.Errorf("peak within [0,0.5) = %v, want 160", got)
	}
	// An extra segment starting at or past the window contributes
	// nothing: only the committed 160 W on [0,1) remains visible.
	if got := ProjectedPeakW(timelines, 2, 10, 500, 1.5, 0); got != 160 {
		t.Errorf("out-of-window extra changed peak to %v, want 160", got)
	}
	// No timelines, no extra draw: zero demand.
	if got := ProjectedPeakW(nil, 0, 0, 0, 10, 0); got != 0 {
		t.Errorf("empty projection = %v, want 0", got)
	}
}

func TestProjectedPeakWTickPadding(t *testing.T) {
	// A committed segment ending exactly when the extra one starts: with
	// no padding they never overlap, with padding the boundary tick
	// double-counts — the conservative upper bound the simulator's
	// tick-granular completion detection requires.
	timelines := [][]PowerSegment{{{DurationS: 1, DynPowerW: 100}}}
	if got := ProjectedPeakW(timelines, 1, 1, 50, 10, 0); got != 100 {
		t.Errorf("unpadded peak = %v, want 100", got)
	}
	if got := ProjectedPeakW(timelines, 1, 1, 50, 10, 0.5); got != 150 {
		t.Errorf("padded peak = %v, want 150", got)
	}
}

func TestProjectedPeakWTerminatesOnNaN(t *testing.T) {
	// A NaN breakpoint time equals nothing, not even itself; the sweep
	// must still consume it and return.
	done := make(chan struct{})
	go func() {
		defer close(done)
		ProjectedPeakW(nil, math.NaN(), 1, 1, 10, 0)
		ProjectedPeakW([][]PowerSegment{{{DurationS: 1, DynPowerW: 100}, {DurationS: 2, DynPowerW: 50}}}, 0.5, 1, 30, 10, math.NaN())
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ProjectedPeakW did not return on a NaN start or pad")
	}
}

// projectedPeakWRef is ProjectedPeakW as first written: every call
// rebuilds all breakpoints, the extra segment's last, and stable-sorts
// them. FuzzProjectedPeakW holds the shared-sort sweep to it.
func projectedPeakWRef(timelines [][]PowerSegment, extraStartS, extraDurS, extraDynW, windowS, padS float64) float64 {
	type delta struct{ t, dw float64 }
	var deltas []delta
	add := func(start, dur, dw float64) {
		if dur <= 0 || dw == 0 || start >= windowS {
			return
		}
		deltas = append(deltas, delta{start, dw})
		if end := start + dur; end < windowS {
			deltas = append(deltas, delta{end, -dw})
		}
	}
	for _, tl := range timelines {
		t := 0.0
		for _, seg := range tl {
			add(t, seg.DurationS+padS, seg.DynPowerW)
			t += seg.DurationS + padS
		}
	}
	add(extraStartS, extraDurS+padS, extraDynW)

	sort.SliceStable(deltas, func(a, b int) bool { return deltas[a].t < deltas[b].t })
	var cur, peak float64
	for i := 0; i < len(deltas); {
		t := deltas[i].t
		for i < len(deltas) && deltas[i].t == t {
			cur += deltas[i].dw
			i++
		}
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// Fuzz inputs draw from small tables so breakpoints coincide: ties
// decide the summation order and so the peak's bits. The non-dyadic
// entries make near-ties that rounding splits or joins. Every table but
// the windows holds one non-finite entry; the finite entries are small
// enough that no sum overflows.
var (
	fuzzDurS    = [16]float64{0, 1e-3, 0.1, 0.2, 0.25, 0.3, 0.5, 1, 1, 1.5, 2, 2, 3, 5, -0.5, math.NaN()}
	fuzzDynW    = [16]float64{0, 0, 0.1, 0.2, 0.3, 1e-9, 25, 33.3, 50, 50, 75.5, 100, 150, 250, -20, math.Inf(1)}
	fuzzWindowS = [8]float64{0.5, 1, 2, 2.5, 3, 5, 10, 30}
	fuzzPadS    = [8]float64{0, 0, 1e-3, 0.1, 0.25, 0.5, 1, math.NaN()}
	fuzzStartS  = [8]float64{0, 0.3, 0.5, 1, 2, 3, -1, math.NaN()}
)

// fuzzProjection is one decoded fuzz input: committed timelines, the
// candidate segments projected against them, and the window and pad.
type fuzzProjection struct {
	timelines     [][]PowerSegment
	cands         [][3]float64 // start, duration, dynamic watts
	windowS, padS float64
}

func decodeProjection(data []byte) fuzzProjection {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	p := fuzzProjection{windowS: fuzzWindowS[next()%8], padS: fuzzPadS[next()%8]}
	p.timelines = make([][]PowerSegment, next()%5)
	for k := range p.timelines {
		for n := next() % 8; n > 0; n-- {
			p.timelines[k] = append(p.timelines[k], PowerSegment{DurationS: fuzzDurS[next()%16], DynPowerW: fuzzDynW[next()%16]})
		}
	}
	for n := 1 + next()%4; n > 0; n-- {
		durS, dynW := fuzzDurS[next()%16], fuzzDynW[next()%16]
		var startS float64
		switch sel := next(); {
		case sel < 64 && len(p.timelines) > 0:
			// Where Place starts a job: behind an instance's committed
			// work, on that timeline's last breakpoint.
			for _, seg := range p.timelines[int(sel)%len(p.timelines)] {
				startS += seg.DurationS + p.padS
			}
		case sel < 96:
			startS = p.windowS + float64(sel%2)*0.5 // at or past the window
		default:
			startS = fuzzStartS[sel%8]
		}
		p.cands = append(p.cands, [3]float64{startS, durS, dynW})
	}
	return p
}

// finite reports whether every input value is finite; only then is the
// reference sure to return.
func (p fuzzProjection) finite() bool {
	vals := []float64{p.windowS, p.padS}
	for _, tl := range p.timelines {
		for _, seg := range tl {
			vals = append(vals, seg.DurationS, seg.DynPowerW)
		}
	}
	for _, c := range p.cands {
		vals = append(vals, c[:]...)
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FuzzProjectedPeakW requires ProjectedPeakW, and each candidate's
// peak on the per-admission path Place uses (one newHorizon, one
// peakWith per candidate), to equal the reference's bits.
func FuzzProjectedPeakW(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProjection(data)
		committed := newHorizon(p.timelines, p.windowS, p.padS)
		defer horizonPool.Put(committed)
		finite := p.finite()
		for _, c := range p.cands {
			got := ProjectedPeakW(p.timelines, c[0], c[1], c[2], p.windowS, p.padS)
			perAdmission := committed.peakWith(c[0], c[1], c[2])
			if !finite {
				continue
			}
			want := projectedPeakWRef(p.timelines, c[0], c[1], c[2], p.windowS, p.padS)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(perAdmission) != math.Float64bits(want) {
				t.Fatalf("candidate %v on %+v (window %v, pad %v): ProjectedPeakW %v, per-admission %v, reference %v",
					c, p.timelines, p.windowS, p.padS, got, perAdmission, want)
			}
		}
	})
}

func TestHorizonMatchesReference(t *testing.T) {
	// The finite table entries, so breakpoints tie across instances.
	// Durations and pads are non-negative, so every timeline is one run
	// unless a case breaks it; the watts keep the -20 W entry.
	durS, dynW, pads := fuzzDurS[:14], fuzzDynW[:15], fuzzPadS[:7]
	src := rng.New(17)
	for _, tc := range []struct {
		instances int
		// negative puts a segment that steps back in time into the
		// middle of instance 0's timeline, splitting its run in two.
		negative bool
	}{{1, false}, {2, false}, {3, false}, {4, false}, {5, false}, {9, false}, {16, false}, {4, true}} {
		for _, windowS := range []float64{30, 1e4} {
			padS := pads[src.Intn(len(pads))]
			timelines := make([][]PowerSegment, tc.instances)
			for k := range timelines {
				for n := src.Intn(201); n > 0; n-- {
					timelines[k] = append(timelines[k], PowerSegment{DurationS: durS[src.Intn(len(durS))], DynPowerW: dynW[src.Intn(len(dynW))]})
				}
			}
			if tc.negative {
				tl := append(timelines[0], PowerSegment{DurationS: 2, DynPowerW: 100}, PowerSegment{DurationS: 1, DynPowerW: 75.5})
				timelines[0] = slices.Insert(tl, len(tl)/2, PowerSegment{DurationS: -3, DynPowerW: 50})
			}

			// Drawn candidates start before the first breakpoint, at and
			// past the window, on every backlog and on committed
			// breakpoints.
			var cands [][3]float64
			draw := func(startS float64) {
				cands = append(cands, [3]float64{startS, durS[src.Intn(len(durS))], dynW[src.Intn(len(dynW))]})
			}
			draw(-1)
			draw(windowS)
			draw(windowS + 0.5)
			var times []float64
			for _, tl := range timelines {
				at := 0.0
				for _, seg := range tl {
					times = append(times, at)
					at += seg.DurationS + padS
				}
				draw(at)
			}
			for n := 0; n < 24 && len(times) > 0; n++ {
				draw(times[src.Intn(len(times))])
			}
			// A candidate that lowers demand for the rest of the window,
			// on every breakpoint inside the short window (the long one
			// holds thousands): where committed demand peaks, the peak is
			// wrong unless the candidate joins the group at its start
			// before the peak is taken.
			if windowS == 30 {
				for _, at := range times {
					if at < windowS {
						cands = append(cands, [3]float64{at, windowS, -20})
					}
				}
			}

			committed := newHorizon(timelines, windowS, padS)
			for _, c := range cands {
				startS, d, w := c[0], c[1], c[2]
				want := projectedPeakWRef(timelines, startS, d, w, windowS, padS)
				got := ProjectedPeakW(timelines, startS, d, w, windowS, padS)
				perAdmission := committed.peakWith(startS, d, w)
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(perAdmission) != math.Float64bits(want) {
					t.Errorf("%d instances (negative %v), window %v, pad %v: candidate (%v, %v, %v): ProjectedPeakW %v, per-admission %v, reference %v",
						tc.instances, tc.negative, windowS, padS, startS, d, w, got, perAdmission, want)
				}
			}
			horizonPool.Put(committed)
		}
	}
}

func TestPredictiveHorizonConcurrent(t *testing.T) {
	// Each goroutine replays its own fleet's admissions while the others
	// draw horizons of other sizes from the shared pool; every pick must
	// match the serial one.
	type admission struct {
		job   Job
		cands []Candidate
		fleet Fleet
	}
	src := rng.New(5)
	p := PredictiveHorizon{WindowS: DefaultHorizonWindowS}
	fleets := make([][]admission, 4)
	want := make([][]int, len(fleets))
	for g := range fleets {
		for a := 0; a < 40; a++ {
			fleet := Fleet{PowerCapW: 400 + 50*float64(g), IdleSumW: 220, Instances: 4, TickS: 1e-3, Timelines: make([][]PowerSegment, 4)}
			var cands []Candidate
			for k := range fleet.Timelines {
				backlogS := 0.0
				for n := src.Intn(10 * (g + 1)); n > 0; n-- {
					seg := PowerSegment{DurationS: 0.1 + 5*src.Float64(), DynPowerW: 20 + 230*src.Float64()}
					fleet.Timelines[k] = append(fleet.Timelines[k], seg)
					backlogS += seg.DurationS
				}
				cands = append(cands, cand(k, backlogS, 1e-3, 75+200*src.Float64()))
			}
			job := Job{ID: fmt.Sprintf("job%d", a), Iterations: 1000 + src.Intn(9000)}
			fleets[g] = append(fleets[g], admission{job, cands, fleet})
			want[g] = append(want[g], p.Place(job, cands, fleet))
		}
	}

	var wg sync.WaitGroup
	for g := range fleets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for a, ad := range fleets[g] {
					if got := p.Place(ad.job, ad.cands, ad.fleet); got != want[g][a] {
						t.Errorf("fleet %d admission %d: placed on %d concurrently, %d serially", g, a, got, want[g][a])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestPredictiveHorizonPlaceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	// Four instances with deep committed queues. AllocsPerRun's warm-up
	// call grows the pooled horizon to them; every admission after it
	// must reuse the pooled buffers.
	src := rng.New(11)
	fleet := Fleet{PowerCapW: 400, IdleSumW: 220, Instances: 4, TickS: 1e-3, Timelines: make([][]PowerSegment, 4)}
	var cands []Candidate
	for k := range fleet.Timelines {
		backlogS := 0.0
		for n := 0; n < 50; n++ {
			seg := PowerSegment{DurationS: 0.1 + src.Float64(), DynPowerW: 20 + 230*src.Float64()}
			fleet.Timelines[k] = append(fleet.Timelines[k], seg)
			backlogS += seg.DurationS
		}
		cands = append(cands, cand(k, backlogS, 1e-3, 75+200*src.Float64()))
	}
	job := Job{ID: "job", Iterations: 5000}
	p := PredictiveHorizon{WindowS: DefaultHorizonWindowS}
	if allocs := testing.AllocsPerRun(100, func() { p.Place(job, cands, fleet) }); allocs != 0 {
		t.Errorf("Place allocated %v times per admission, want 0", allocs)
	}
}

// horizonFleet is a two-instance capped fleet where instance 0 has one
// committed hot job (100 W dynamic for 10 s) and instance 1 is idle.
// Idle floor 110 W, cap 260 W: dynamic headroom 150 W.
func horizonFleet() Fleet {
	return Fleet{
		PowerCapW: 260,
		IdleSumW:  110,
		Instances: 2,
		TickS:     1e-3,
		Timelines: [][]PowerSegment{
			{{DurationS: 10, DynPowerW: 100}},
			nil,
		},
	}
}

func TestPredictiveHorizonDefersBreachingJob(t *testing.T) {
	fleet := horizonFleet()
	p := PredictiveHorizon{WindowS: 30}

	// A hot job (100 W dynamic, 10 s service) on the idle instance would
	// run concurrently with instance 0's committed work: 200 W projected
	// dynamic peak against 150 W headroom. The policy must defer it
	// behind the committed job even though the idle instance finishes it
	// 10 s sooner.
	hot := Job{ID: "hot", Iterations: 10000}
	cands := []Candidate{
		cand(0, 10, 1e-3, 155), // dyn 100, starts after the backlog
		cand(1, 0, 1e-3, 155),  // dyn 100, starts now — breaches
	}
	if got := p.Place(hot, cands, fleet); got != 0 {
		t.Errorf("hot job placed on %d, want deferred behind instance 0", got)
	}
	// EarliestCompletion takes the breaching placement, confirming the
	// deferral is the horizon's doing.
	if got := (EarliestCompletion{}).Place(hot, cands, fleet); got != 1 {
		t.Errorf("EarliestCompletion placed on %d, want 1", got)
	}

	// A cheap job (40 W dynamic) fits beside the committed work: 140 W
	// projected peak is inside headroom, so it takes the idle instance
	// and the earlier completion.
	cheap := []Candidate{cand(0, 10, 1e-3, 95), cand(1, 0, 1e-3, 95)}
	if got := p.Place(hot, cheap, fleet); got != 1 {
		t.Errorf("cheap job placed on %d, want the idle instance 1", got)
	}
}

func TestPredictiveHorizonMinimizesOverageWhenAllBreach(t *testing.T) {
	// Shrink headroom to 90 W so even a lone 100 W job breaches wherever
	// it goes. Deferring behind instance 0 keeps the projected peak at
	// 100 W (overage 10); running concurrently peaks at 200 W (overage
	// 110). The policy takes the least-bad breach.
	fleet := horizonFleet()
	fleet.PowerCapW = 200
	hot := Job{ID: "hot", Iterations: 10000}
	cands := []Candidate{cand(0, 10, 1e-3, 155), cand(1, 0, 1e-3, 155)}
	if got := (PredictiveHorizon{WindowS: 30}).Place(hot, cands, fleet); got != 0 {
		t.Errorf("placed on %d, want the minimal-overage instance 0", got)
	}
}

func TestPredictiveHorizonBeyondWindowIsInvisible(t *testing.T) {
	// With a 5 s window, the deferred start (t = 10 s) of the hot job
	// falls outside the projection, so only the concurrent placement's
	// breach is visible — and the committed segment alone already fills
	// the window, so deferral projects a clean 100 W peak. A long window
	// sees both; a short one must still defer.
	fleet := horizonFleet()
	hot := Job{ID: "hot", Iterations: 10000}
	cands := []Candidate{cand(0, 10, 1e-3, 155), cand(1, 0, 1e-3, 155)}
	if got := (PredictiveHorizon{WindowS: 5}).Place(hot, cands, fleet); got != 0 {
		t.Errorf("short-window placement on %d, want 0", got)
	}
}

func TestPredictiveHorizonDegradesToPowerPack(t *testing.T) {
	job := Job{ID: "hot", Iterations: 1000}
	hotQueue := cand(0, 1.0, 1e-3, 85)
	hotQueue.QueueDynEnergyJ = 30.0
	empty := cand(1, 0, 1e-3, 85)
	cands := []Candidate{hotQueue, empty}

	capped := Fleet{PowerCapW: 300, IdleSumW: 110, Instances: 2}
	for _, tc := range []struct {
		name   string
		policy PredictiveHorizon
		fleet  Fleet
	}{
		{"zero window", PredictiveHorizon{}, withTimelines(capped)},
		{"nil timelines", PredictiveHorizon{WindowS: 30}, capped},
		{"uncapped", PredictiveHorizon{WindowS: 30}, withTimelines(Fleet{Instances: 2})},
	} {
		want := (PowerPack{}).Place(job, cands, tc.fleet)
		if got := tc.policy.Place(job, cands, tc.fleet); got != want {
			t.Errorf("%s: placed on %d, want PowerPack's %d", tc.name, got, want)
		}
	}

	// The degrade is real PowerPack behaviour, not a coincidence: under
	// a cap the hot job joins the hot queue (affinity), which
	// EarliestCompletion would never do.
	if got := (PredictiveHorizon{}).Place(job, cands, withTimelines(capped)); got != 0 {
		t.Errorf("zero-window capped placement on %d, want PowerPack's affinity pick 0", got)
	}
}

func withTimelines(f Fleet) Fleet {
	f.Timelines = make([][]PowerSegment, f.Instances)
	return f
}

func TestPredictiveHorizonIsHorizonAware(t *testing.T) {
	var p Policy = PredictiveHorizon{WindowS: 12.5}
	ha, ok := p.(HorizonAware)
	if !ok {
		t.Fatal("PredictiveHorizon must implement HorizonAware")
	}
	if got := ha.HorizonWindowS(); got != 12.5 {
		t.Errorf("HorizonWindowS = %v, want 12.5", got)
	}
	if w := (PredictiveHorizon{}).HorizonWindowS(); w > 0 {
		t.Errorf("zero-value window = %v, want non-positive", w)
	}
	// No other built-in policy asks for timelines.
	for _, pol := range All() {
		if _, ok := pol.(HorizonAware); ok && pol.Name() != "PredictiveHorizon" {
			t.Errorf("%s unexpectedly implements HorizonAware", pol.Name())
		}
	}
}
