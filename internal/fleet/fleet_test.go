package fleet

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// testTrace is a small mixed workload: 24 jobs over 4 distinct specs,
// arriving fast enough to queue on a small fleet.
func testTrace(t *testing.T) *Trace {
	t.Helper()
	// Sizes 256/512 so devices draw meaningfully above their idle
	// floor (small GEMMs underutilize a 108-SM part and sit at idle,
	// which would give the cap and thermal governors nothing to do).
	tr, err := Synthetic(SyntheticConfig{
		Jobs:          24,
		RatePerS:      400,
		Seed:          7,
		DTypes:        []string{"FP16"},
		Patterns:      []string{"gaussian(default)", "constant(7)"},
		Sizes:         []int{256, 512},
		MinIterations: 2000,
		MaxIterations: 8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testFleet() []*device.Device {
	return []*device.Device{device.A100PCIe(), device.A100PCIe(), device.A100PCIe()}
}

func smallOracle() *ModelOracle { return &ModelOracle{SampleOutputs: 64} }

func TestRunDeterministic(t *testing.T) {
	// Equal configs and traces must produce byte-identical reports —
	// the property the CI smoke run asserts with cmp.
	run := func() *Report {
		r, err := Run(context.Background(), Config{
			Devices:       testFleet(),
			Oracle:        smallOracle(),
			PowerCapW:     500,
			RecordSamples: true,
		}, testTrace(t))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two identical runs produced different reports")
	}
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("JSON reports differ across identical runs")
	}
}

func TestRunCompletesAllJobs(t *testing.T) {
	tr := testTrace(t)
	r, err := Run(context.Background(), Config{Devices: testFleet(), Oracle: smallOracle()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != len(tr.Jobs) || r.Unfinished != 0 {
		t.Fatalf("completed %d / unfinished %d of %d jobs", r.Completed, r.Unfinished, len(tr.Jobs))
	}
	for _, jr := range r.JobResults {
		if jr.Error != "" {
			t.Fatalf("job %s failed: %s", jr.ID, jr.Error)
		}
		// Latency can never be below the job's own full-clock service
		// time (queueing and throttling only add).
		if jr.LatencyS < jr.ServiceS-1e-9 {
			t.Errorf("job %s: latency %v below service time %v", jr.ID, jr.LatencyS, jr.ServiceS)
		}
	}
	if r.LatencyP50S > r.LatencyP99S || r.LatencyP99S > r.LatencyMaxS {
		t.Errorf("latency percentiles not monotone: p50=%v p99=%v max=%v",
			r.LatencyP50S, r.LatencyP99S, r.LatencyMaxS)
	}
	var util float64
	for _, d := range r.Devices {
		util += d.UtilizationFrac
	}
	if util <= 0 {
		t.Error("no device reported utilization")
	}
}

func TestPowerCapThrottles(t *testing.T) {
	// An aggregate cap below the fleet's natural demand must produce
	// cap throttle events, hold the sampled fleet power at or below
	// the cap, and stretch the makespan versus the uncapped run.
	tr := testTrace(t)
	uncapped, err := Run(context.Background(), Config{
		Devices: testFleet(), Oracle: smallOracle(), RecordSamples: true,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if uncapped.PeakFleetW <= 0 {
		t.Fatal("uncapped run reports no power")
	}
	// Cap halfway between idle floor and observed peak demand.
	idle := 3 * device.A100PCIe().IdleWatts
	cap := idle + (uncapped.PeakFleetW-idle)*0.5

	capped, err := Run(context.Background(), Config{
		Devices: testFleet(), Oracle: smallOracle(), PowerCapW: cap, RecordSamples: true,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	var capEvents int
	for _, ev := range capped.ThrottleEvents {
		if ev.Reason == "cap" {
			capEvents++
			if ev.EndS <= ev.StartS {
				t.Errorf("empty throttle event %+v", ev)
			}
		}
	}
	if capEvents == 0 {
		t.Fatal("cap below demand produced no cap throttle events")
	}
	for _, sm := range capped.Samples {
		if sm.FleetW > cap+1e-6 {
			t.Fatalf("sample at %vs: fleet power %v exceeds cap %v", sm.TimeS, sm.FleetW, cap)
		}
	}
	if capped.PeakFleetW > cap+1e-6 {
		t.Errorf("peak fleet power %v exceeds cap %v", capped.PeakFleetW, cap)
	}
	if capped.DurationS <= uncapped.DurationS {
		t.Errorf("capped makespan %v not longer than uncapped %v", capped.DurationS, uncapped.DurationS)
	}
	if capped.Completed != len(tr.Jobs) {
		t.Errorf("capped run completed %d of %d jobs", capped.Completed, len(tr.Jobs))
	}
}

func TestThermalThrottle(t *testing.T) {
	// A hot aisle (ambient far above the preset's 30 °C calibration)
	// must drive devices to their throttle temperature and clamp them
	// there: thermal events appear and no die exceeds the limit by
	// more than integration slack.
	tr := testTrace(t)
	// At 72 °C inlet the A100's thermal budget is
	// (83−72)/0.155 ≈ 71 W — between its 55 W idle floor and the
	// ~83 W a 512² FP16 GEMM draws, so sustained load must throttle.
	r, err := Run(context.Background(), Config{
		Devices:     []*device.Device{device.A100PCIe()},
		Oracle:      smallOracle(),
		AmbientC:    72,
		ThermalTauS: 0.05,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	var thermal int
	for _, ev := range r.ThrottleEvents {
		if ev.Reason == "thermal" {
			thermal++
		}
	}
	if thermal == 0 {
		t.Fatal("hot ambient produced no thermal throttle events")
	}
	limit := device.A100PCIe().Thermal.ThrottleTempC
	for _, d := range r.Devices {
		if d.MaxTempC > limit+0.5 {
			t.Errorf("%s reached %v°C, throttle limit is %v°C", d.Device, d.MaxTempC, limit)
		}
		if d.ThermalThrottledS <= 0 {
			t.Errorf("%s reports no thermal-throttled time", d.Device)
		}
	}

	if _, err := Run(context.Background(), Config{
		Devices: testFleet(), Oracle: smallOracle(), AmbientC: 90,
	}, tr); err == nil {
		t.Error("ambient above the throttle point must be rejected")
	}
}

func TestOracleCoalescing(t *testing.T) {
	// 24 jobs × 2 distinct specs × 2 fleet models: the oracle must see
	// one lookup per (job, candidate model) but simulate only the
	// distinct keys.
	tr, err := Synthetic(SyntheticConfig{
		Jobs: 24, RatePerS: 400, Seed: 3,
		DTypes: []string{"FP16"}, Patterns: []string{"gaussian(default)", "constant(7)"},
		Sizes: []int{32}, MinIterations: 1000, MaxIterations: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := smallOracle()
	r, err := Run(context.Background(), Config{
		Devices: []*device.Device{device.A100PCIe(), device.H100SXM()},
		Oracle:  o,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Oracle.Lookups != int64(24*2) {
		t.Errorf("lookups = %d, want %d", r.Oracle.Lookups, 24*2)
	}
	if r.Oracle.Distinct != int64(2*2) {
		t.Errorf("distinct = %d, want %d (2 specs × 2 models)", r.Oracle.Distinct, 4)
	}
}

func TestServerOracleMatchesModelOracle(t *testing.T) {
	// The serving-backed oracle must drive the fleet to the same
	// physical outcome as the offline model oracle: same powers, same
	// makespan, same completions (PredictedW may differ — that is the
	// fitted model's output).
	tr, err := Synthetic(SyntheticConfig{
		Jobs: 8, RatePerS: 400, Seed: 5,
		DTypes: []string{"FP16"}, Patterns: []string{"gaussian(default)", "constant(7)"},
		Sizes: []int{32, 64}, MinIterations: 1000, MaxIterations: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	devs := []*device.Device{device.A100PCIe()}

	offline, err := Run(context.Background(), Config{Devices: devs, Oracle: smallOracle()}, tr)
	if err != nil {
		t.Fatal(err)
	}

	srv := serve.NewCore(serve.Config{
		CacheSize: 64, MaxSize: 192, SampleOutputs: 64,
		Training: experiments.TrainingConfig{
			Sizes: []int{32, 48, 64},
			Patterns: []string{
				"gaussian(default)", "gaussian(mean=500, std=1)", "constant(7)",
				"constant(random)", "set(n=4, mean=0, std=210)",
				"gaussian(default) | sparsify(50%)", "gaussian(default) | sort(rows, 100%)",
			},
			SampleOutputs: 64, Seed: 1,
		},
	})
	defer srv.Close()
	served, err := Run(context.Background(), Config{Devices: devs, Oracle: BackendOracle(srv)}, tr)
	if err != nil {
		t.Fatal(err)
	}

	if served.DurationS != offline.DurationS {
		t.Errorf("makespan differs: served %v, offline %v", served.DurationS, offline.DurationS)
	}
	if served.FleetEnergyJ != offline.FleetEnergyJ {
		t.Errorf("fleet energy differs: served %v, offline %v", served.FleetEnergyJ, offline.FleetEnergyJ)
	}
	if len(served.JobResults) != len(offline.JobResults) {
		t.Fatalf("job counts differ: %d vs %d", len(served.JobResults), len(offline.JobResults))
	}
	for i := range served.JobResults {
		a, b := served.JobResults[i], offline.JobResults[i]
		if a.ID != b.ID || a.PowerW != b.PowerW || a.LatencyS != b.LatencyS {
			t.Errorf("job %d differs: served %+v, offline %+v", i, a, b)
		}
		// The fitted predictor tracks the simulator closely at
		// training scale — the number an operator would provision on.
		if b.PowerW > 0 {
			if rel := math.Abs(a.PredictedW-a.PowerW) / a.PowerW; rel > 0.05 {
				t.Errorf("job %s: predicted %vW vs simulated %vW (%.1f%% off)", a.ID, a.PredictedW, a.PowerW, 100*rel)
			}
		}
	}
}

func TestTraceReadAndValidate(t *testing.T) {
	in := `{"jobs": [
		{"id": "b", "dtype": "FP16", "pattern": "gaussian( default )", "size": 32, "arrival_s": 0.5, "iterations": 100},
		{"id": "a", "dtype": "INT8", "pattern": "constant(7)", "size": 64, "arrival_s": 0.5, "iterations": 200},
		{"dtype": "FP32", "pattern": "gaussian(default)", "size": 32, "arrival_s": 0.1, "iterations": 50}
	]}`
	tr, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by (arrival, ID); pattern canonicalized; default ID
	// assigned from the original index.
	if tr.Jobs[0].ID != "job2" || tr.Jobs[1].ID != "a" || tr.Jobs[2].ID != "b" {
		t.Errorf("trace order = %s, %s, %s", tr.Jobs[0].ID, tr.Jobs[1].ID, tr.Jobs[2].ID)
	}
	if tr.Jobs[2].Pattern != "gaussian(default)" {
		t.Errorf("pattern not canonicalized: %q", tr.Jobs[2].Pattern)
	}

	bad := []string{
		`{"jobs": []}`,
		`{"jobs": [{"dtype": "FP13", "pattern": "constant(7)", "size": 32, "iterations": 1}]}`,
		`{"jobs": [{"dtype": "FP16", "pattern": "nope(", "size": 32, "iterations": 1}]}`,
		`{"jobs": [{"dtype": "FP16", "pattern": "constant(7)", "size": 4, "iterations": 1}]}`,
		`{"jobs": [{"dtype": "FP16", "pattern": "constant(7)", "size": 32, "iterations": 0}]}`,
		`{"jobs": [{"dtype": "FP16", "pattern": "constant(7)", "size": 32, "iterations": 1, "unknown_field": 1}]}`,
	}
	for _, s := range bad {
		if _, err := ReadTrace(strings.NewReader(s)); err == nil {
			t.Errorf("trace %s must be rejected", s)
		}
	}
}

func TestPinnedJobs(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{ID: "pinned", Device: "H100-SXM5-80GB", DType: "FP16", Pattern: "constant(7)", Size: 32, Iterations: 500},
		{ID: "free", DType: "FP16", Pattern: "constant(7)", Size: 32, Iterations: 500},
	}}
	r, err := Run(context.Background(), Config{
		Devices: []*device.Device{device.A100PCIe(), device.H100SXM()},
		Oracle:  smallOracle(),
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range r.JobResults {
		if jr.ID == "pinned" && !strings.HasPrefix(jr.Device, "H100") {
			t.Errorf("pinned job ran on %s", jr.Device)
		}
	}

	badPin := &Trace{Jobs: []Job{
		{Device: "V100-SXM2-32GB", DType: "FP16", Pattern: "constant(7)", Size: 32, Iterations: 10},
	}}
	if _, err := Run(context.Background(), Config{
		Devices: []*device.Device{device.A100PCIe()}, Oracle: smallOracle(),
	}, badPin); err == nil {
		t.Error("job pinned to an absent model must fail the run")
	}
}

func TestReportCSV(t *testing.T) {
	tr := testTrace(t)
	r, err := Run(context.Background(), Config{
		Devices: testFleet(), Oracle: smallOracle(), RecordSamples: true,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	wantCols := 2 + 2*len(r.Devices)
	for i, line := range lines {
		if got := len(strings.Split(line, ",")); got != wantCols {
			t.Fatalf("line %d has %d columns, want %d", i, got, wantCols)
		}
	}

	noSamples, err := Run(context.Background(), Config{Devices: testFleet(), Oracle: smallOracle()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := noSamples.WriteCSV(&buf); err == nil {
		t.Error("CSV without samples must error")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, err := Synthetic(SyntheticConfig{Jobs: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(SyntheticConfig{Jobs: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds produced different traces")
	}
	c, err := Synthetic(SyntheticConfig{Jobs: 50, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical traces")
	}
	for i := 1; i < len(a.Jobs); i++ {
		if a.Jobs[i].ArrivalS < a.Jobs[i-1].ArrivalS {
			t.Fatal("arrivals not sorted")
		}
	}
}
