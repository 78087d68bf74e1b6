// Package core is the public facade of the reproduction: a Simulator
// that measures the power of GEMM executions on simulated NVIDIA GPUs
// as a function of the input data, per "Input-Dependent Power Usage in
// GPUs" (SC 2024).
//
// Typical use:
//
//	sim := core.NewSimulator(device.A100PCIe())
//	m, err := sim.MeasurePattern(matrix.FP16, 2048,
//	    patterns.MustParse("gaussian(default) | sort(rows, 100%)"),
//	    core.Options{Seed: 1})
//	fmt.Println(m.AvgPowerW)
//
// RunChain is the one place the measurement chain the paper describes
// in §III is wired: CUTLASS-style kernel tiling, activity extraction
// and the switched-capacitance power model with TDP/thermal
// throttling. The Simulator adds a DCGM-like 100 ms sampler with
// warm-up trimming and VM-instance process variation; the experiment
// harness, the serving layer and the command-line tools call RunChain
// directly.
package core

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Options configures one measurement.
type Options struct {
	// TransposeB mirrors the paper's default of consuming Bᵀ. Note the
	// zero value differs from the paper default; use DefaultOptions()
	// or the experiments package for paper-faithful runs.
	TransposeB bool
	// SampleOutputs bounds the sampled activity terms (0 = default).
	SampleOutputs int
	// Seed drives input generation (A and B derive distinct streams).
	Seed uint64
	// VMInstance pins the process-variation offset.
	VMInstance uint64
	// Tile overrides the CUTLASS-style tile shape (zero = dtype
	// default).
	Tile kernels.TileConfig
}

// DefaultOptions returns the paper's §III measurement defaults.
func DefaultOptions() Options {
	return Options{TransposeB: true, VMInstance: 1}
}

// Measurement is the user-facing result of one simulated experiment.
type Measurement struct {
	// AvgPowerW is the DCGM-sampled, warm-up-trimmed average power —
	// the paper's reported quantity.
	AvgPowerW float64
	// ModelPowerW is the noise-free steady-state model power.
	ModelPowerW    float64
	IterTimeS      float64
	EnergyPerIterJ float64
	BusyFrac       float64
	Throttled      bool
	SteadyTempC    float64
	// MemBound reports that the roofline memory floor, not the compute
	// waves, sets the kernel time (a function of shape and device
	// only).
	MemBound bool

	// Activity is the underlying switching-activity report.
	Activity *activity.Report
	// Breakdown decomposes the model power by component.
	Breakdown power.Breakdown
	// Features is the §V power-model feature vector of this run.
	Features power.FeatureVector
}

// Simulator measures input-dependent GEMM power on one device.
type Simulator struct {
	dev *device.Device
}

// NewSimulator validates the device and returns a simulator for it.
func NewSimulator(dev *device.Device) (*Simulator, error) {
	if dev == nil {
		return nil, fmt.Errorf("core: nil device")
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{dev: dev}, nil
}

// Device returns the simulated device.
func (s *Simulator) Device() *device.Device { return s.dev }

// MeasureGEMM measures one GEMM of a's datatype with explicit operand
// matrices: the measurement chain (RunChain) followed by DCGM-style
// sampling over a loop long enough for stable samples. B is the
// generated matrix; it is consumed as Bᵀ if opts.TransposeB is set.
func (s *Simulator) MeasureGEMM(a, b *matrix.Matrix, opts Options) (*Measurement, error) {
	ch, err := RunChain(s.dev, a.DType, a, b, ChainSpec{
		TransposeB:    opts.TransposeB,
		Tile:          opts.Tile,
		SampleOutputs: opts.SampleOutputs,
	})
	if err != nil {
		return nil, err
	}
	rep, res := ch.Activity, ch.Power
	meas, err := telemetry.Measure(res, telemetry.RecommendedIterations(res), telemetry.Config{
		VMInstance: opts.VMInstance,
		Seed:       opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Measurement{
		AvgPowerW:      meas.AvgPowerW,
		ModelPowerW:    res.AvgPowerW,
		IterTimeS:      meas.IterTimeS,
		EnergyPerIterJ: meas.EnergyPerIterJ,
		BusyFrac:       meas.BusyFrac,
		Throttled:      meas.Throttled,
		SteadyTempC:    res.SteadyTempC,
		MemBound:       res.MemBound,
		Activity:       rep,
		Breakdown:      res.Breakdown,
		Features:       power.FeaturesOf(rep, res),
	}, nil
}

// MeasurePattern generates size×size A and B matrices from the pattern
// (distinct streams per §III) and measures the GEMM.
func (s *Simulator) MeasurePattern(dt matrix.DType, size int, pat patterns.Pattern, opts Options) (*Measurement, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: size must be positive")
	}
	a := matrix.New(dt, size, size)
	b := matrix.New(dt, size, size)
	pat.Apply(a, rng.Derive(opts.Seed, "A"))
	pat.Apply(b, rng.Derive(opts.Seed, "B"))
	return s.MeasureGEMM(a, b, opts)
}

// MeasureDSL parses a §V pattern-DSL string and measures it.
func (s *Simulator) MeasureDSL(dt matrix.DType, size int, dsl string, opts Options) (*Measurement, error) {
	pat, err := patterns.Parse(dsl)
	if err != nil {
		return nil, err
	}
	return s.MeasurePattern(dt, size, pat, opts)
}

// TrainPredictor fits the §V input-dependent power model on a corpus of
// DSL patterns measured at the given sizes, and returns it with its
// in-sample R².
func (s *Simulator) TrainPredictor(dt matrix.DType, sizes []int, dsls []string, opts Options) (*power.Predictor, float64, error) {
	var samples []power.Sample
	for _, size := range sizes {
		for i, dsl := range dsls {
			o := opts
			o.Seed = opts.Seed + uint64(i)*7919
			m, err := s.MeasureDSL(dt, size, dsl, o)
			if err != nil {
				return nil, 0, fmt.Errorf("core: pattern %q: %w", dsl, err)
			}
			samples = append(samples, power.Sample{Features: m.Features, PowerW: m.AvgPowerW})
		}
	}
	pred, err := power.Train(samples)
	if err != nil {
		return nil, 0, err
	}
	return pred, pred.RSquared(samples), nil
}
