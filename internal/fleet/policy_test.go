package fleet

import (
	"bytes"
	"context"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/device"
	"repro/internal/sched"
)

// goldenConfig reproduces the exact run that generated
// testdata/golden_ec_report.json with the pre-refactor scheduler
// (fixed earliest-completion placement inlined in admit), so the test
// below proves the sched extraction changed nothing.
func goldenConfig(t *testing.T) (Config, *Trace) {
	t.Helper()
	trace, err := Synthetic(SyntheticConfig{
		Jobs:          48,
		RatePerS:      400,
		Seed:          7,
		DTypes:        []string{"FP16", "INT8"},
		Patterns:      []string{"gaussian(default)", "constant(7)", "gaussian(default) | sparsify(50%)"},
		Sizes:         []int{256, 512},
		MinIterations: 2000,
		MaxIterations: 8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Devices:   []*device.Device{device.A100PCIe(), device.A100PCIe(), device.A100PCIe(), device.H100SXM()},
		Oracle:    &ModelOracle{SampleOutputs: 64},
		PowerCapW: 320,
	}, trace
}

// TestEarliestCompletionGolden proves the tentpole refactor is
// byte-exact: placement through sched.EarliestCompletion (both as the
// nil default and explicitly) reproduces the committed report that the
// pre-extraction scheduler produced on the same seed.
func TestEarliestCompletionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_ec_report.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []sched.Policy{nil, sched.EarliestCompletion{}} {
		cfg, trace := goldenConfig(t)
		cfg.Policy = p
		r, err := Run(context.Background(), cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := r.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("policy %v: report differs from the pre-refactor golden (%d vs %d bytes)",
				p, got.Len(), len(want))
		}
	}
}

// TestCrossPolicyDeterminism runs every built-in policy twice on the
// same seed and requires byte-identical reports — the property that
// makes policy A/B fronts exact diffs rather than statistics.
func TestCrossPolicyDeterminism(t *testing.T) {
	for _, p := range sched.All() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			run := func() []byte {
				cfg, trace := goldenConfig(t)
				cfg.Policy = p
				r, err := Run(context.Background(), cfg, trace)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := r.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if a, b := run(), run(); !bytes.Equal(a, b) {
				t.Fatalf("two identical %s runs produced different reports", p.Name())
			}
		})
	}
}

// TestInvalidPlacementFailsJob: a policy returning an out-of-range
// index must fail the job loudly, not corrupt the simulation.
func TestInvalidPlacementFailsJob(t *testing.T) {
	cfg, trace := goldenConfig(t)
	cfg.Policy = badPolicy{}
	r, err := Run(context.Background(), cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 0 || r.Unfinished != r.Jobs {
		t.Fatalf("bad policy completed %d of %d jobs", r.Completed, r.Jobs)
	}
	for _, jr := range r.JobResults {
		if jr.Error == "" {
			t.Fatalf("job %s has no error under a bad policy", jr.ID)
		}
	}
}

type badPolicy struct{}

func (badPolicy) Name() string                                        { return "Bad" }
func (badPolicy) Place(sched.Job, []sched.Candidate, sched.Fleet) int { return 99 }

// schedFrontConfig is the capped mixed-encoding scenario of CI's
// policy A/B and horizon smokes: 96 size-512 jobs in three encodings
// and six patterns on four A100s under a 310 W cap.
func schedFrontConfig(t *testing.T, oracle Oracle) (Config, *Trace) {
	t.Helper()
	trace, err := Synthetic(SyntheticConfig{
		Jobs:     96,
		RatePerS: 300,
		Seed:     42,
		DTypes:   []string{"FP16", "FP16-T", "INT8"},
		Patterns: []string{
			"gaussian(default)", "gaussian(mean=500, std=1)",
			"constant(7)", "gaussian(default) | sparsify(75%)",
			"gaussian(default) | sort(rows, 100%)", "gaussian(default) | zerolsb(8)",
		},
		Sizes: []int{512},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Devices:   []*device.Device{device.A100PCIe(), device.A100PCIe(), device.A100PCIe(), device.A100PCIe()},
		Oracle:    oracle,
		PowerCapW: 310,
	}, trace
}

// TestPolicyFrontsMatchCIFixtures rebuilds CI's two fleetsim -compare
// smokes in Go (default oracle fidelity, tick and horizon) and
// requires their CSV fronts to equal the committed fixtures byte for
// byte, so a placement change fails tier-1, not only CI.
func TestPolicyFrontsMatchCIFixtures(t *testing.T) {
	cfg, trace := schedFrontConfig(t, NewModelOracle())
	for _, tc := range []struct {
		fixture  string
		policies []sched.Policy
	}{
		{"sched-front.csv", []sched.Policy{sched.EarliestCompletion{}, sched.PowerPack{}, sched.ThermalSpread{}, sched.EnergyGreedy{}}},
		{"horizon-front.csv", []sched.Policy{sched.EarliestCompletion{}, sched.PowerPack{}, sched.PredictiveHorizon{WindowS: 30}}},
	} {
		want, err := os.ReadFile("../../.github/testdata/" + tc.fixture)
		if err != nil {
			t.Fatal(err)
		}
		front, err := sched.Compare(context.Background(), PolicyRunner(cfg, trace), tc.policies)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := front.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s drifted:\n got:\n%s\nwant:\n%s", tc.fixture, got.Bytes(), want)
		}
	}
}

// TestPredictiveHorizonDeepQueuePinned pins the JSON report of
// fleetsim -policy PredictiveHorizon -cap 300 -jobs 512 -seed 1, whose
// queues reach 431 committed segments (the CI fixtures peak at 89), by
// an FNV-64a digest recorded before the projection sweep was rewritten.
func TestPredictiveHorizonDeepQueuePinned(t *testing.T) {
	trace, err := Synthetic(SyntheticConfig{Jobs: 512, RatePerS: 200, Seed: 1, Sizes: []int{128, 256, 512}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), Config{
		Devices:   []*device.Device{device.A100PCIe(), device.A100PCIe(), device.A100PCIe(), device.A100PCIe()},
		Oracle:    NewModelOracle(),
		Policy:    sched.PredictiveHorizon{WindowS: 30},
		PowerCapW: 300,
	}, trace)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	if err := r.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	if got, want := h.Sum64(), uint64(0xf89cf4fa87327abd); got != want {
		t.Errorf("report digest %#x, want %#x", got, want)
	}
}

// TestPowerPackReducesThrottle reproduces the examples/schedfront
// acceptance property: on a capped mixed-encoding stream, packing jobs
// by dynamic power must yield strictly fewer cap-throttle events than
// earliest-completion placement, at a makespan cost.
func TestPowerPackReducesThrottle(t *testing.T) {
	cfg, trace := schedFrontConfig(t, smallOracle())
	front, err := sched.Compare(context.Background(), PolicyRunner(cfg, trace),
		[]sched.Policy{sched.EarliestCompletion{}, sched.PowerPack{}})
	if err != nil {
		t.Fatal(err)
	}
	ec, _ := front.ByPolicy("EarliestCompletion")
	pp, _ := front.ByPolicy("PowerPack")
	if ec.ThrottleEvents == 0 {
		t.Fatal("baseline run did not throttle; the cap is not binding")
	}
	if pp.ThrottleEvents >= ec.ThrottleEvents {
		t.Errorf("PowerPack %d throttle events, EarliestCompletion %d — want strictly fewer",
			pp.ThrottleEvents, ec.ThrottleEvents)
	}
	if pp.CapThrottledS >= ec.CapThrottledS {
		t.Errorf("PowerPack capped %.3fs, EarliestCompletion %.3fs — want strictly less",
			pp.CapThrottledS, ec.CapThrottledS)
	}
	if pp.Completed != pp.Jobs || ec.Completed != ec.Jobs {
		t.Errorf("incomplete runs: PowerPack %d/%d, EarliestCompletion %d/%d",
			pp.Completed, pp.Jobs, ec.Completed, ec.Jobs)
	}
}

// TestPredictiveHorizonFront is the tentpole acceptance property: on
// the capped mixed-encoding schedfront scenario, projecting demand
// over a horizon must trace a strictly better knee than packing by
// instantaneous power — no more throttle events than PowerPack at a
// materially lower makespan. It runs the CI scenario at reduced oracle
// fidelity (64 sampled outputs, not fleetsim's 128), so its rows are
// not the committed fixture's; TestPolicyFrontsMatchCIFixtures pins
// those.
func TestPredictiveHorizonFront(t *testing.T) {
	cfg, trace := schedFrontConfig(t, smallOracle())
	front, err := sched.Compare(context.Background(), PolicyRunner(cfg, trace),
		[]sched.Policy{sched.EarliestCompletion{}, sched.PowerPack{}, sched.PredictiveHorizon{WindowS: sched.DefaultHorizonWindowS}})
	if err != nil {
		t.Fatal(err)
	}
	ec, _ := front.ByPolicy("EarliestCompletion")
	pp, _ := front.ByPolicy("PowerPack")
	ph, _ := front.ByPolicy("PredictiveHorizon")
	if ec.ThrottleEvents == 0 {
		t.Fatal("baseline run did not throttle; the cap is not binding")
	}
	if ph.ThrottleEvents > pp.ThrottleEvents {
		t.Errorf("PredictiveHorizon %d throttle events, PowerPack %d — want no more",
			ph.ThrottleEvents, pp.ThrottleEvents)
	}
	if ph.MakespanS >= pp.MakespanS {
		t.Errorf("PredictiveHorizon makespan %.3fs, PowerPack %.3fs — want strictly lower",
			ph.MakespanS, pp.MakespanS)
	}
	if ph.Completed != ph.Jobs {
		t.Errorf("PredictiveHorizon completed %d of %d jobs", ph.Completed, ph.Jobs)
	}
}

// TestCompareFrontDeterministic drives the full harness: the front
// over all built-in policies must be byte-identical across two
// comparisons, every policy must complete the workload, and rows must
// genuinely differ (if every policy placed identically the subsystem
// would be dead weight).
func TestCompareFrontDeterministic(t *testing.T) {
	front := func() *sched.Front {
		cfg, trace := goldenConfig(t)
		f, err := sched.Compare(context.Background(), PolicyRunner(cfg, trace), sched.All())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1, f2 := front(), front()
	var b1, b2 bytes.Buffer
	if err := f1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := f2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two identical comparisons produced different fronts")
	}
	if len(f1.Outcomes) != len(sched.All()) {
		t.Fatalf("front has %d rows for %d policies", len(f1.Outcomes), len(sched.All()))
	}
	distinct := false
	base := f1.Outcomes[0]
	for _, o := range f1.Outcomes {
		if o.Completed != o.Jobs || o.Unfinished != 0 {
			t.Errorf("%s completed %d of %d jobs", o.Policy, o.Completed, o.Jobs)
		}
		if o.MakespanS != base.MakespanS || o.FleetEnergyJ != base.FleetEnergyJ {
			distinct = true
		}
	}
	if !distinct {
		t.Error("all policies produced identical outcomes on a mixed workload")
	}
}
