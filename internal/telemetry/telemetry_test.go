package telemetry

import (
	"math"
	"testing"

	"repro/internal/activity"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/power"
	"repro/internal/rng"
)

func operatingPoint(t *testing.T, n int) *power.Result {
	t.Helper()
	dt := matrix.FP16
	a := matrix.New(dt, n, n)
	b := matrix.New(dt, n, n)
	matrix.FillGaussian(a, rng.Derive(1, "A"), 0, 210)
	matrix.FillGaussian(b, rng.Derive(1, "B"), 0, 210)
	p := kernels.NewProblem(dt, a, b)
	rep, err := activity.Analyze(p, activity.Config{SampleOutputs: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := power.Evaluate(device.A100PCIe(), p, rep)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInstanceOffsetBounded(t *testing.T) {
	for inst := uint64(0); inst < 200; inst++ {
		off := InstanceOffsetW(inst)
		if math.Abs(off) > MaxInstanceOffsetW {
			t.Fatalf("instance %d offset %v exceeds ±%vW", inst, off, MaxInstanceOffsetW)
		}
	}
}

func TestInstanceOffsetDeterministicAndVaried(t *testing.T) {
	if InstanceOffsetW(3) != InstanceOffsetW(3) {
		t.Error("offset must be deterministic")
	}
	distinct := map[float64]bool{}
	for inst := uint64(0); inst < 20; inst++ {
		distinct[InstanceOffsetW(inst)] = true
	}
	if len(distinct) < 15 {
		t.Error("offsets should vary across instances")
	}
}

func TestTraceWarmupRamp(t *testing.T) {
	res := operatingPoint(t, 256)
	tr := NewTrace(res, Config{NoiseW: -1, Seed: 1})
	p0 := tr.PowerAt(0)
	pLate := tr.PowerAt(5)
	if math.Abs(p0-res.Device.IdleWatts) > 1 {
		t.Errorf("power at t=0 should be near idle: %v", p0)
	}
	steady := res.AvgPowerW + InstanceOffsetW(0)
	if math.Abs(pLate-steady) > 0.5 {
		t.Errorf("late power %v should approach steady %v", pLate, steady)
	}
	// Monotone ramp without noise.
	prev := p0
	for x := 0.05; x <= 1; x += 0.05 {
		p := tr.PowerAt(x)
		if p < prev-1e-9 {
			t.Fatalf("warm-up ramp not monotone at t=%v", x)
		}
		prev = p
	}
	// Negative time clamps.
	if tr.PowerAt(-1) != p0 {
		t.Error("negative time should clamp to t=0")
	}
}

func TestNoiseDeterministic(t *testing.T) {
	res := operatingPoint(t, 256)
	a := NewTrace(res, Config{Seed: 9})
	b := NewTrace(res, Config{Seed: 9})
	for x := 0.0; x < 2; x += 0.137 {
		if a.PowerAt(x) != b.PowerAt(x) {
			t.Fatal("same seed should give identical traces")
		}
	}
	c := NewTrace(res, Config{Seed: 10})
	same := true
	for x := 0.0; x < 2; x += 0.137 {
		if a.PowerAt(x) != c.PowerAt(x) {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestMeasureBasics(t *testing.T) {
	res := operatingPoint(t, 256)
	iters := RecommendedIterations(res)
	m, err := Measure(res, iters, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Samples) < 10 {
		t.Fatalf("expected many 100ms samples over %d iterations, got %d", iters, len(m.Samples))
	}
	// The trimmed average must approximate the model's steady power
	// plus the instance offset.
	want := res.AvgPowerW + InstanceOffsetW(0)
	if math.Abs(m.AvgPowerW-want) > 1.5 {
		t.Errorf("measured %vW, want ≈%vW", m.AvgPowerW, want)
	}
	// Trimming warm-up samples must raise the average.
	if m.AvgPowerW <= m.RawAvgPowerW {
		t.Error("trimmed average should exceed raw average (warm-up ramp)")
	}
	if m.EnergyPerIterJ <= 0 {
		t.Error("energy per iteration should be positive")
	}
	if m.BusyFrac <= 0 || m.BusyFrac > 1 {
		t.Errorf("busy fraction %v out of range", m.BusyFrac)
	}
}

func TestMeasureIterTimeMicrosecondConsistency(t *testing.T) {
	// §III / Fig. 1: iteration runtimes are consistent to the
	// microsecond across seeds.
	res := operatingPoint(t, 256)
	var times []float64
	for seed := uint64(0); seed < 10; seed++ {
		m, err := Measure(res, 10000, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, m.IterTimeS)
	}
	lo, hi := times[0], times[0]
	for _, x := range times {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi-lo > 1e-6 {
		t.Errorf("iteration time spread %v s exceeds 1µs", hi-lo)
	}
}

func TestMeasureInstancePinning(t *testing.T) {
	// Different VM instances shift measured power by up to ±10 W; the
	// same instance reproduces.
	res := operatingPoint(t, 256)
	m1, _ := Measure(res, 5000, Config{VMInstance: 1, Seed: 2})
	m2, _ := Measure(res, 5000, Config{VMInstance: 1, Seed: 2})
	if m1.AvgPowerW != m2.AvgPowerW {
		t.Error("pinned instance and seed must reproduce exactly")
	}
	var maxShift float64
	for inst := uint64(0); inst < 10; inst++ {
		m, _ := Measure(res, 5000, Config{VMInstance: inst, Seed: 2})
		shift := math.Abs(m.AvgPowerW - m1.AvgPowerW)
		if shift > maxShift {
			maxShift = shift
		}
	}
	if maxShift == 0 {
		t.Error("instances should differ")
	}
	if maxShift > 2*MaxInstanceOffsetW {
		t.Errorf("instance shift %v exceeds the paper's ±10W observation", maxShift)
	}
}

func TestMeasureRejectsBadIterations(t *testing.T) {
	res := operatingPoint(t, 256)
	if _, err := Measure(res, 0, Config{}); err == nil {
		t.Error("expected error for zero iterations")
	}
}

func TestShortRunFallsBackToRawMean(t *testing.T) {
	res := operatingPoint(t, 256)
	m, err := Measure(res, 1, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Samples) != 1 {
		t.Fatalf("one-iteration run should yield one sample, got %d", len(m.Samples))
	}
	if m.AvgPowerW <= 0 {
		t.Error("short-run fallback average should be positive")
	}
}

func TestRecommendedIterations(t *testing.T) {
	res := operatingPoint(t, 256)
	n := RecommendedIterations(res)
	if n < 100 {
		t.Error("iteration floor violated")
	}
	total := float64(n) * res.IterTimeS
	if total < 1 || total > 10 {
		t.Errorf("recommended duration %vs should be a few seconds", total)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.NoiseW != 0.6 {
		t.Error("default noise should be 0.6W")
	}
	d := Config{NoiseW: -1}.withDefaults()
	if d.NoiseW != 0 {
		t.Error("negative NoiseW should disable noise")
	}
}
