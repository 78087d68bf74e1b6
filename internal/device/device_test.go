package device

import (
	"reflect"
	"testing"

	"repro/internal/matrix"
)

func TestPresetsValidate(t *testing.T) {
	for _, d := range All() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestPresetCount(t *testing.T) {
	if len(All()) != 4 {
		t.Fatalf("expected the paper's 4 GPUs, got %d", len(All()))
	}
}

func TestByName(t *testing.T) {
	for _, d := range All() {
		got := ByName(d.Name)
		if !reflect.DeepEqual(got, d) {
			t.Errorf("ByName(%q) = %+v, want All()'s %+v", d.Name, got, d)
		}
		// Callers may mutate what they get, so each call builds afresh.
		if got != nil && ByName(d.Name) == got {
			t.Errorf("ByName(%q) returned the same pointer twice", d.Name)
		}
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName of unknown device should be nil")
	}
}

func TestByNameBuildsOnePreset(t *testing.T) {
	all := testing.AllocsPerRun(100, func() { All() })
	one := testing.AllocsPerRun(100, func() { ByName("A100-PCIe-40GB") })
	if one >= all {
		t.Errorf("ByName allocates %v times per call, All %v: ByName should build only its preset", one, all)
	}
}

func TestTDPsMatchPaper(t *testing.T) {
	want := map[string]float64{
		"A100-PCIe-40GB":     300,
		"H100-SXM5-80GB":     700,
		"V100-SXM2-32GB":     300,
		"QuadroRTX6000-24GB": 260,
	}
	for name, tdp := range want {
		d := ByName(name)
		if d == nil {
			t.Fatalf("missing preset %s", name)
		}
		if d.TDPWatts != tdp {
			t.Errorf("%s TDP = %v, want %v (paper §III/§IV-E)", name, d.TDPWatts, tdp)
		}
	}
}

func TestMemoryTypes(t *testing.T) {
	// The paper attributes the RTX 6000's muted response partly to
	// GDDR6 versus HBM on the other parts.
	if ByName("QuadroRTX6000-24GB").MemoryType != "GDDR6" {
		t.Error("RTX 6000 should use GDDR6")
	}
	if ByName("H100-SXM5-80GB").MemoryType != "HBM3" {
		t.Error("H100 should use HBM3")
	}
}

func TestTensorCoreRateDominates(t *testing.T) {
	for _, d := range All() {
		if d.PeakMACs[matrix.FP16T] <= d.PeakMACs[matrix.FP16] {
			t.Errorf("%s: tensor-core FP16 rate should exceed SIMT FP16", d.Name)
		}
		if d.PeakMACs[matrix.FP16] <= d.PeakMACs[matrix.FP32] {
			t.Errorf("%s: FP16 rate should exceed FP32", d.Name)
		}
	}
}

func TestThermalModel(t *testing.T) {
	th := Thermal{AmbientC: 30, RThermalCPerW: 0.2, ThrottleTempC: 80}
	if th.SteadyTempC(0) != 30 {
		t.Error("zero power should sit at ambient")
	}
	if th.SteadyTempC(100) != 50 {
		t.Error("steady temp wrong")
	}
	if th.ThrottlePowerW() != 250 {
		t.Errorf("throttle power = %v, want 250", th.ThrottlePowerW())
	}
}

func TestA100IsTDPGoverned(t *testing.T) {
	// The A100 preset must throttle on TDP before temperature, matching
	// the paper's experience of running near but under TDP at 2048².
	a := A100PCIe()
	if a.Thermal.ThrottlePowerW() <= a.TDPWatts {
		t.Errorf("A100 thermal throttle point %.0fW should exceed TDP %.0fW",
			a.Thermal.ThrottlePowerW(), a.TDPWatts)
	}
}

func TestRTX6000IsThermallyLimited(t *testing.T) {
	// The RTX 6000 must thermally throttle below TDP, reproducing the
	// paper's observation that it throttled at 2048².
	r := RTX6000()
	if r.Thermal.ThrottlePowerW() >= r.TDPWatts {
		t.Errorf("RTX 6000 thermal throttle point %.0fW should be below TDP %.0fW",
			r.Thermal.ThrottlePowerW(), r.TDPWatts)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	good := A100PCIe()
	cases := []func(*Device){
		func(d *Device) { d.SMCount = 0 },
		func(d *Device) { d.TDPWatts = d.IdleWatts },
		func(d *Device) { d.KernelEfficiency = 0 },
		func(d *Device) { d.KernelEfficiency = 1.5 },
		func(d *Device) { d.PeakMACs = map[matrix.DType]float64{} },
		func(d *Device) { d.Energy = map[matrix.DType]EnergyCoeffs{} },
		func(d *Device) { d.Thermal.RThermalCPerW = 0 },
		func(d *Device) { d.Thermal.ThrottleTempC = d.Thermal.AmbientC },
	}
	for i, mutate := range cases {
		d := *good
		// Deep-enough copy for the fields we mutate.
		d.PeakMACs = good.PeakMACs
		d.Energy = good.Energy
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSMMACRate(t *testing.T) {
	a := A100PCIe()
	got := a.SMMACRate(matrix.FP32)
	want := 9750e9 * 0.88 / 108
	if got != want {
		t.Errorf("SMMACRate = %v, want %v", got, want)
	}
}

func TestEnergyScaling(t *testing.T) {
	a := A100PCIe().Energy[matrix.FP32]
	h := H100SXM().Energy[matrix.FP32]
	if h.IssuePJ >= a.IssuePJ {
		t.Error("H100 (4nm) per-event energy should be below A100 (7nm)")
	}
	v := V100SXM2().Energy[matrix.FP32]
	if v.IssuePJ <= a.IssuePJ {
		t.Error("V100 (12nm) per-event energy should exceed A100")
	}
}

func TestEnergyCoeffsString(t *testing.T) {
	s := a100Energy[matrix.FP32].String()
	if s == "" {
		t.Error("String should not be empty")
	}
}

func TestNamesMatchPresets(t *testing.T) {
	names := Names()
	if len(names) != len(All()) {
		t.Fatalf("Names returned %d entries for %d presets", len(names), len(All()))
	}
	for _, name := range names {
		d := ByName(name)
		if d == nil {
			t.Errorf("ByName(%q) = nil for a listed preset", name)
			continue
		}
		if d.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, d.Name)
		}
	}
}
