package core

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
)

func sim(t *testing.T) *Simulator {
	t.Helper()
	s, err := NewSimulator(device.A100PCIe())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSimulatorValidates(t *testing.T) {
	if _, err := NewSimulator(nil); err == nil {
		t.Error("nil device should error")
	}
	bad := device.A100PCIe()
	bad.SMCount = 0
	if _, err := NewSimulator(bad); err == nil {
		t.Error("invalid device should error")
	}
	s := sim(t)
	if s.Device().Name != "A100-PCIe-40GB" {
		t.Error("Device accessor wrong")
	}
}

func TestMeasurePattern(t *testing.T) {
	s := sim(t)
	opts := DefaultOptions()
	m, err := s.MeasurePattern(matrix.FP16, 192, patterns.GaussianDefault(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgPowerW <= s.Device().IdleWatts || m.AvgPowerW > s.Device().TDPWatts {
		t.Errorf("power %v outside envelope", m.AvgPowerW)
	}
	if m.IterTimeS <= 0 || m.EnergyPerIterJ <= 0 {
		t.Error("runtime/energy should be positive")
	}
	if m.Activity == nil || m.Activity.MACs != 192*192*192 {
		t.Error("activity report missing or wrong")
	}
	if math.Abs(m.Breakdown.TotalW()-m.ModelPowerW) > 1e-6 {
		t.Error("breakdown should sum to model power")
	}
}

func TestMeasurePatternRejectsBadSize(t *testing.T) {
	s := sim(t)
	if _, err := s.MeasurePattern(matrix.FP16, 0, patterns.GaussianDefault(), Options{}); err == nil {
		t.Error("expected size error")
	}
}

func TestMeasureDSL(t *testing.T) {
	s := sim(t)
	m, err := s.MeasureDSL(matrix.FP32, 128, "gaussian(default) | sparsify(50%)", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dense, err := s.MeasureDSL(matrix.FP32, 128, "gaussian(default)", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgPowerW >= dense.AvgPowerW {
		t.Error("sparse input should draw less power than dense")
	}
	if _, err := s.MeasureDSL(matrix.FP32, 128, "bogus()", DefaultOptions()); err == nil {
		t.Error("bad DSL should error")
	}
}

func TestSortingLowersPower(t *testing.T) {
	s := sim(t)
	opts := DefaultOptions()
	base, err := s.MeasurePattern(matrix.FP16, 160, patterns.GaussianDefault(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := s.MeasurePattern(matrix.FP16, 160, patterns.GaussianDefault().Sorted(patterns.SortRows, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rel := (sorted.AvgPowerW - base.AvgPowerW) / base.AvgPowerW; rel >= 0 {
		t.Errorf("sorting should reduce power, rel change = %v", rel)
	}
}

func TestMeasurementDeterminism(t *testing.T) {
	s := sim(t)
	opts := DefaultOptions()
	opts.Seed = 5
	a, err := s.MeasurePattern(matrix.INT8, 128, patterns.GaussianDefault(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MeasurePattern(matrix.INT8, 128, patterns.GaussianDefault(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgPowerW != b.AvgPowerW || a.IterTimeS != b.IterTimeS {
		t.Error("same seed and options must reproduce exactly")
	}
}

func TestTransposeBOption(t *testing.T) {
	// With row-sorted inputs, consuming Bᵀ (aligned) must draw less
	// power than consuming B directly (T9).
	s := sim(t)
	pat := patterns.GaussianDefault().Sorted(patterns.SortRows, 1)
	optsT := DefaultOptions()
	optsT.Seed = 3
	withT, err := s.MeasurePattern(matrix.FP16, 160, pat, optsT)
	if err != nil {
		t.Fatal(err)
	}
	optsN := optsT
	optsN.TransposeB = false
	without, err := s.MeasurePattern(matrix.FP16, 160, pat, optsN)
	if err != nil {
		t.Fatal(err)
	}
	if withT.AvgPowerW >= without.AvgPowerW {
		t.Errorf("aligned (transposed) sorted B should draw less: %v vs %v",
			withT.AvgPowerW, without.AvgPowerW)
	}
}

func TestTrainPredictor(t *testing.T) {
	s := sim(t)
	dsls := []string{
		"gaussian(default)",
		"gaussian(default) | sparsify(50%)",
		"gaussian(default) | sort(rows, 100%)",
		"constant(random)",
		"constant(random) | randlsb(6)",
		"gaussian(mean=500, std=1)",
		"set(n=4, mean=0, std=210)",
		"gaussian(default) | zeromsb(4)",
	}
	pred, r2, err := s.TrainPredictor(matrix.FP16, []int{96, 128, 160}, dsls, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.95 {
		t.Errorf("predictor in-sample R² = %v, want ≈1", r2)
	}
	// Predict a held-out configuration within a few watts.
	m, err := s.MeasureDSL(matrix.FP16, 144, "gaussian(default) | sparsify(25%)", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := pred.Predict(m.Features)
	if math.Abs(got-m.AvgPowerW) > 0.05*m.AvgPowerW {
		t.Errorf("held-out prediction %v vs measured %v", got, m.AvgPowerW)
	}
}

func TestTrainPredictorBadDSL(t *testing.T) {
	s := sim(t)
	if _, _, err := s.TrainPredictor(matrix.FP16, []int{64}, []string{"nope"}, Options{}); err == nil {
		t.Error("bad DSL should propagate an error")
	}
}

func TestBF16TEndToEnd(t *testing.T) {
	// The BF16 extension flows through the whole public API.
	s := sim(t)
	opts := DefaultOptions()
	bf, err := s.MeasurePattern(matrix.BF16T, 160, patterns.GaussianDefault(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.MeasurePattern(matrix.FP16T, 160, patterns.GaussianDefault(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if bf.AvgPowerW >= fp.AvgPowerW {
		t.Errorf("BF16-T (%v W) should draw less than FP16-T (%v W): 8-bit significands",
			bf.AvgPowerW, fp.AvgPowerW)
	}
	pmBF := bf.Activity.PerMAC()
	pmFP := fp.Activity.PerMAC()
	if pmBF.MultPPUnits >= pmFP.MultPPUnits {
		t.Error("BF16 should drive fewer multiplier partial products")
	}
}
