package power

import (
	"math"
	"testing"

	"repro/internal/activity"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/rng"
)

func problemFor(dt matrix.DType, n, k, m int, seed uint64) (*kernels.Problem, *activity.Report) {
	a := matrix.New(dt, n, k)
	b := matrix.New(dt, k, m)
	matrix.FillGaussian(a, rng.Derive(seed, "A"), 0, matrix.DefaultStd(dt))
	matrix.FillGaussian(b, rng.Derive(seed, "B"), 0, matrix.DefaultStd(dt))
	p := kernels.NewProblem(dt, a, b)
	rep, err := activity.Analyze(p, activity.Config{SampleOutputs: 64, Seed: 1})
	if err != nil {
		panic(err)
	}
	return p, rep
}

func evaluate(t *testing.T, dev *device.Device, dt matrix.DType, n int, seed uint64) *Result {
	t.Helper()
	p, rep := problemFor(dt, n, n, n, seed)
	res, err := Evaluate(dev, p, rep)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPowerWithinDeviceEnvelope(t *testing.T) {
	dev := device.A100PCIe()
	for _, dt := range matrix.DTypes {
		res := evaluate(t, dev, dt, 256, 7)
		if res.AvgPowerW < dev.IdleWatts {
			t.Errorf("%v: power %v below idle", dt, res.AvgPowerW)
		}
		if res.AvgPowerW > dev.TDPWatts {
			t.Errorf("%v: power %v above TDP", dt, res.AvgPowerW)
		}
	}
}

func TestBreakdownSumsToAvgPower(t *testing.T) {
	dev := device.A100PCIe()
	for _, dt := range matrix.DTypes {
		res := evaluate(t, dev, dt, 256, 11)
		sum := res.Breakdown.TotalW()
		if math.Abs(sum-res.AvgPowerW) > 1e-9*res.AvgPowerW {
			t.Errorf("%v: breakdown sums to %v, avg power %v", dt, sum, res.AvgPowerW)
		}
	}
}

func TestZeroInputPowerIsFloor(t *testing.T) {
	// All-zero matrices: only static + issue power remain.
	dev := device.A100PCIe()
	dt := matrix.FP32
	a := matrix.New(dt, 256, 256)
	b := matrix.New(dt, 256, 256)
	p := kernels.NewProblem(dt, a, b)
	rep, err := activity.Analyze(p, activity.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(dev, p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.DynamicW() != 0 {
		t.Errorf("zero input should have zero data-dependent power, got %v", res.Breakdown.DynamicW())
	}
	if res.Breakdown.IssueW <= 0 {
		t.Error("issue power must remain for zero input (runtime is data-independent)")
	}
	random := evaluate(t, dev, dt, 256, 13)
	if res.AvgPowerW >= random.AvgPowerW {
		t.Error("zero input must draw less power than random input")
	}
}

func TestRuntimeIsInputIndependent(t *testing.T) {
	// Fig. 1: iteration runtimes are consistent across experiments of a
	// datatype because the kernel does the same work regardless of
	// values (absent throttling).
	dev := device.A100PCIe()
	dt := matrix.FP16
	zero := func() *Result {
		a := matrix.New(dt, 256, 256)
		b := matrix.New(dt, 256, 256)
		p := kernels.NewProblem(dt, a, b)
		rep, _ := activity.Analyze(p, activity.Config{})
		res, err := Evaluate(dev, p, rep)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	random := evaluate(t, dev, dt, 256, 17)
	if zero.IterTimeS != random.IterTimeS {
		t.Errorf("iteration time must not depend on input: %v vs %v", zero.IterTimeS, random.IterTimeS)
	}
}

func TestA100OperatingPoint2048(t *testing.T) {
	// The paper's primary configuration: 2048² GEMM on the A100. One
	// evaluation per datatype checks all the §III operating-point
	// claims together.
	if testing.Short() {
		t.Skip("2048² evaluations are slow on one core")
	}
	dev := device.A100PCIe()
	results := map[matrix.DType]*Result{}
	var busySum float64
	for _, dt := range matrix.DTypes {
		res := evaluate(t, dev, dt, 2048, 23)
		results[dt] = res
		busySum += res.BusyFrac

		// §III: 2048 was the largest power of two that did not
		// consistently throttle.
		if res.Throttled {
			t.Errorf("%v: A100 should not throttle at 2048² (power %v)", dt, res.KernelPowerW)
		}
		if res.AvgPowerW > dev.TDPWatts || res.AvgPowerW < dev.IdleWatts {
			t.Errorf("%v: power %v outside envelope", dt, res.AvgPowerW)
		}
	}
	// §III: ~98.5% average utilization across experiments.
	avgBusy := busySum / float64(len(matrix.DTypes))
	if avgBusy < 0.96 || avgBusy > 0.999 {
		t.Errorf("average busy fraction %v, want ≈0.985", avgBusy)
	}
	// T7: FP16-T draws the most power; Fig. 1: it is also the fastest.
	for _, dt := range []matrix.DType{matrix.FP32, matrix.FP16, matrix.INT8} {
		if results[matrix.FP16T].AvgPowerW <= results[dt].AvgPowerW {
			t.Errorf("FP16-T power %v should exceed %v power %v",
				results[matrix.FP16T].AvgPowerW, dt, results[dt].AvgPowerW)
		}
		if results[matrix.FP16T].IterTimeS >= results[dt].IterTimeS {
			t.Errorf("FP16-T should be fastest; %v vs %v", dt, results[dt].IterTimeS)
		}
	}
	// Fig. 1: FP32 is the slowest setup.
	for _, dt := range []matrix.DType{matrix.FP16, matrix.FP16T, matrix.INT8} {
		if results[matrix.FP32].IterTimeS <= results[dt].IterTimeS {
			t.Error("FP32 should be the slowest setup")
		}
	}
}

func TestUtilizationRaisesPowerWithSize(t *testing.T) {
	// Wave packing: a 4-wave-exact size draws more than a badly
	// quantized one at the same activity rates.
	dev := device.A100PCIe()
	small := evaluate(t, dev, matrix.FP32, 256, 29) // 4 tiles on 108 SMs
	big := evaluate(t, dev, matrix.FP32, 2048, 29)  // 256 tiles
	if small.Utilization >= big.Utilization {
		t.Errorf("utilization should grow with size: %v vs %v", small.Utilization, big.Utilization)
	}
	if small.AvgPowerW >= big.AvgPowerW {
		t.Errorf("power should grow with utilization: %v vs %v", small.AvgPowerW, big.AvgPowerW)
	}
}

func TestThrottlingEngagesAboveCap(t *testing.T) {
	// Force throttling by inflating coefficients.
	dev := device.A100PCIe()
	for dt, c := range dev.Energy {
		c.IssuePJ *= 20
		dev.Energy[dt] = c
	}
	res := evaluate(t, dev, matrix.FP16T, 512, 31)
	if !res.Throttled {
		t.Fatal("expected throttling with inflated energies")
	}
	if res.Reason != ThrottleTDP {
		t.Errorf("A100 should hit the TDP limiter, got %q", res.Reason)
	}
	if res.KernelPowerW > dev.TDPWatts+1e-9 {
		t.Errorf("throttled power %v must not exceed TDP", res.KernelPowerW)
	}
	if res.ClockScale >= 1 {
		t.Error("throttling must reduce clocks")
	}
	// Throttling stretches runtime.
	if res.KernelTimeS <= 0 {
		t.Error("bad kernel time")
	}
}

func TestRTX6000ThermalThrottleAt2048(t *testing.T) {
	// Paper §IV-E: the RTX 6000 throttled at 2048² (hence measured at
	// 512²). Reproduce both halves.
	dev := device.RTX6000()
	big := evaluate(t, dev, matrix.FP16, 2048, 37)
	if !big.Throttled {
		t.Error("RTX 6000 should throttle on a 2048² GEMM")
	}
	if big.Reason != ThrottleThermal {
		t.Errorf("RTX 6000 limiter should be thermal, got %q", big.Reason)
	}
	small := evaluate(t, dev, matrix.FP16, 512, 37)
	if small.Throttled {
		t.Error("RTX 6000 should not throttle at 512²")
	}
}

func TestA100ThrottlesAt4096FP16T(t *testing.T) {
	if testing.Short() {
		t.Skip("4096² evaluation is slow on one core")
	}
	dev := device.A100PCIe()
	res := evaluate(t, dev, matrix.FP16T, 4096, 43)
	if !res.Throttled {
		t.Errorf("A100 FP16-T at 4096² should exceed TDP (power %v)", res.KernelPowerW)
	}
}

func TestEnergyConsistency(t *testing.T) {
	dev := device.A100PCIe()
	res := evaluate(t, dev, matrix.FP32, 512, 53)
	wantE := res.AvgPowerW * res.IterTimeS
	if math.Abs(res.EnergyPerIterJ-wantE) > 1e-12 {
		t.Error("energy per iteration must equal avg power × iteration time")
	}
}

func TestEvaluateValidates(t *testing.T) {
	dev := device.A100PCIe()
	p, rep := problemFor(matrix.FP32, 64, 64, 64, 1)
	bad := *dev
	bad.SMCount = 0
	if _, err := Evaluate(&bad, p, rep); err == nil {
		t.Error("expected device validation error")
	}
	badP := kernels.NewProblem(matrix.FP32,
		matrix.New(matrix.FP32, 4, 8), matrix.New(matrix.FP32, 9, 4))
	if _, err := Evaluate(dev, badP, rep); err == nil {
		t.Error("expected problem validation error")
	}
}

func TestPredictorRecoversCoefficients(t *testing.T) {
	// Train the §V input-dependent power model on a corpus of varied
	// inputs and verify it recovers the device's energy coefficients.
	dev := device.A100PCIe()
	dt := matrix.FP16
	var samples []Sample
	seeds := []uint64{1, 2, 3}
	type gen func(m *matrix.Matrix, src *rng.Source)
	gens := []gen{
		func(m *matrix.Matrix, src *rng.Source) { matrix.FillGaussian(m, src, 0, 210) },
		func(m *matrix.Matrix, src *rng.Source) { matrix.FillGaussian(m, src, 500, 1) },
		func(m *matrix.Matrix, src *rng.Source) { matrix.FillConstant(m, 7) },
		func(m *matrix.Matrix, src *rng.Source) {
			matrix.FillGaussian(m, src, 0, 210)
			matrix.Sparsify(m, src, 0.5)
		},
		func(m *matrix.Matrix, src *rng.Source) {
			matrix.FillGaussian(m, src, 0, 210)
			matrix.PartialSort(m, matrix.IntoRows, 1)
		},
		func(m *matrix.Matrix, src *rng.Source) {
			matrix.FillConstant(m, 42)
			matrix.RandomizeLSBs(m, src, 8)
		},
		func(m *matrix.Matrix, src *rng.Source) { matrix.FillFromSet(m, src, []float64{1, 2, 3, 4}) },
	}
	// Sizes must vary or the MAC-rate feature is collinear with the
	// intercept and the normal equations go singular.
	sizes := []int{64, 96, 128}
	for si, seed := range seeds {
		size := sizes[si%len(sizes)]
		for gi, g := range gens {
			a := matrix.New(dt, size, size)
			b := matrix.New(dt, size, size)
			g(a, rng.Derive(seed, "A"))
			g(b, rng.Derive(seed+uint64(gi)*1000, "B"))
			p := kernels.NewProblem(dt, a, b)
			rep, err := activity.Analyze(p, activity.Config{SampleOutputs: 128, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Evaluate(dev, p, rep)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, Sample{Features: FeaturesOf(rep, res), PowerW: res.AvgPowerW})
		}
	}
	pred, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := pred.RSquared(samples); r2 < 0.999 {
		t.Errorf("in-sample R² = %v, want ≈1 (model is linear)", r2)
	}
	// The fitted per-event weights should approximate the device's
	// coefficient table (duty-cycle effects introduce small bias).
	coeff := dev.Energy[dt]
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"issue", pred.Weights[1], coeff.IssuePJ},
		{"operand", pred.Weights[2], coeff.OperandPJPerToggle},
		{"mult", pred.Weights[3], coeff.MultPJPerPP},
	}
	for _, c := range checks {
		if c.want == 0 {
			continue
		}
		rel := math.Abs(c.got-c.want) / c.want
		if rel > 0.15 {
			t.Errorf("recovered %s energy %v, device uses %v (rel %v)", c.name, c.got, c.want, rel)
		}
	}
	// Held-out prediction sanity.
	p, rep := problemFor(dt, 128, 128, 128, 999)
	res, _ := Evaluate(dev, p, rep)
	got := pred.Predict(FeaturesOf(rep, res))
	if math.Abs(got-res.AvgPowerW) > 0.05*res.AvgPowerW {
		t.Errorf("held-out prediction %v vs actual %v", got, res.AvgPowerW)
	}
}

func TestTrainRequiresEnoughSamples(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("expected error for empty training set")
	}
}

func TestRooflineMemoryBoundShortK(t *testing.T) {
	// A 2048×8×2048 GEMM moves a full output matrix for almost no
	// arithmetic: the memory floor must set its runtime, and its power
	// must sit below the compute-bound square GEMM of the same N·M.
	dev := device.A100PCIe()
	dt := matrix.FP16
	a := matrix.New(dt, 2048, 8)
	b := matrix.New(dt, 8, 2048)
	matrix.FillGaussian(a, rng.New(1), 0, 210)
	matrix.FillGaussian(b, rng.New(2), 0, 210)
	p := kernels.NewProblem(dt, a, b)
	rep, err := activity.Analyze(p, activity.Config{SampleOutputs: 32})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(dev, p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemBound {
		t.Fatalf("2048x8x2048 should be memory-bound (mem %.2eus vs kernel %.2eus)",
			res.MemTimeS*1e6, res.KernelTimeS*1e6)
	}
	if res.KernelTimeS < res.MemTimeS {
		t.Error("kernel time should be floored by the memory time")
	}
}

func TestRooflineComputeBoundSquare(t *testing.T) {
	// The paper's 2048² configuration is far above the ridge point.
	dev := device.A100PCIe()
	res := evaluate(t, dev, matrix.FP16T, 512, 61)
	if res.MemBound {
		t.Error("square tensor-core GEMM should be compute-bound")
	}
	if res.MemTimeS <= 0 {
		t.Error("memory time should be reported")
	}
}
