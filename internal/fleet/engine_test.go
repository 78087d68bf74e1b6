package fleet

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/sched"
)

// reportDigest is the FNV-64a hash of the report's JSON encoding.
func reportDigest(t *testing.T, r *Report) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := r.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// countReasons tallies throttle events and failed jobs by their reason.
func countReasons(r *Report) map[string]int {
	n := map[string]int{}
	for _, ev := range r.ThrottleEvents {
		n[ev.Reason]++
	}
	for _, jr := range r.JobResults {
		if jr.Error != "" {
			n[jr.Error]++
		}
	}
	return n
}

// The three pins below hold engine paths no committed fixture covers
// (thermal throttling, a horizon abort, sampled telemetry under a
// horizon-aware policy) to FNV-64a digests of their JSON reports,
// recorded before the tick loop was restructured.

func TestThermalReportPinned(t *testing.T) {
	r, err := Run(context.Background(), Config{
		Devices:       []*device.Device{device.A100PCIe()},
		Oracle:        smallOracle(),
		AmbientC:      72,
		ThermalTauS:   0.05,
		RecordSamples: true,
	}, testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if n := countReasons(r); n["thermal"] != 5 || len(r.Samples) != 25 {
		t.Errorf("%d thermal events and %d samples, want 5 and 25", n["thermal"], len(r.Samples))
	}
	if got, want := reportDigest(t, r), uint64(0xa25a05c93dfeb6dd); got != want {
		t.Errorf("report digest %#x, want %#x", got, want)
	}
}

func TestHorizonAbortReportPinned(t *testing.T) {
	// A cap below the fleet's 245 W idle floor stalls every job, so the
	// run ends at the horizon with work running, queued and pending.
	cfg, trace := goldenConfig(t)
	cfg.PowerCapW = 100
	cfg.HorizonS = 0.05
	r, err := Run(context.Background(), cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	n := countReasons(r)
	if n["unfinished at horizon"] != 4 || n["queued at horizon"] != 9 || n["not admitted before horizon"] != 35 {
		t.Errorf("failures by reason %v, want 4 unfinished, 9 queued, 35 not admitted", n)
	}
	if got, want := reportDigest(t, r), uint64(0x4e1482ef656aaab6); got != want {
		t.Errorf("report digest %#x, want %#x", got, want)
	}
}

func TestPredictiveHorizonSamplesPinned(t *testing.T) {
	cfg, trace := goldenConfig(t)
	cfg.Policy = sched.PredictiveHorizon{WindowS: 30}
	cfg.RecordSamples = true
	r, err := Run(context.Background(), cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) != 12 {
		t.Errorf("%d samples, want 12", len(r.Samples))
	}
	if got, want := reportDigest(t, r), uint64(0x2fe3c7ff0e0cd663); got != want {
		t.Errorf("report digest %#x, want %#x", got, want)
	}
}

func TestAdvanceStopsWhenCanceled(t *testing.T) {
	// Advance checks the context only at event phases; a completion
	// forces one on the next tick, so canceling from the sink on the
	// first completion must stop the run there.
	cfg, trace := goldenConfig(t)
	eng, _ := newRunEngine(t, cfg, trace)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng.SetSink(func(ev Event) {
		if ev.Kind == EventComplete {
			cancel()
		}
	})
	state, err := eng.Advance(ctx, math.MaxInt)
	if !errors.Is(err, context.Canceled) || state != Running {
		t.Fatalf("Advance returned (%v, %v), want (running, context.Canceled)", state, err)
	}
	r := eng.Report()
	if r.Completed == 0 || r.Completed >= r.Jobs {
		t.Fatalf("%d of %d jobs completed before the cancel took effect", r.Completed, r.Jobs)
	}

	// A canceled context stops the next call before it advances time.
	nowS := eng.NowS()
	if _, err := eng.Advance(ctx, math.MaxInt); !errors.Is(err, context.Canceled) || eng.NowS() != nowS {
		t.Fatalf("second Advance returned %v and moved the clock from %v to %v", err, nowS, eng.NowS())
	}
}
