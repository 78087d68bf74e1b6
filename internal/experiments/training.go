package experiments

// This file provides the reduced experiment sweep that trains the §V
// input-dependent power model for the serving layer (internal/serve):
// a corpus of DSL patterns measured at several small sizes, fanned out
// across workers, reduced to power.Samples in a deterministic order so
// that training is reproducible regardless of scheduling.

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/power"
)

// TrainingConfig describes a reduced sweep for fitting a
// power.Predictor.
type TrainingConfig struct {
	// Sizes are the square GEMM dimensions to measure. They must vary,
	// or the MAC-rate feature is collinear with the intercept.
	Sizes []int
	// Patterns are DSL pipeline strings (see patterns.Parse); the sweep
	// measures every (size, pattern) pair.
	Patterns []string
	// SampleOutputs bounds the sampled activity terms per run.
	SampleOutputs int
	// Seed derives the per-run input streams.
	Seed uint64
	// Workers bounds sweep parallelism; 0 means GOMAXPROCS.
	Workers int
}

// DefaultTraining returns the serving layer's default sweep: three
// small sizes crossed with a pattern corpus that spans the paper's
// input axes (distribution, value range, similarity, sparsity, bit
// placement), 21 samples per (device, dtype) — enough spread for the
// 7-weight fit at interactive training latency.
func DefaultTraining() TrainingConfig {
	return TrainingConfig{
		Sizes: []int{64, 96, 128},
		Patterns: []string{
			"gaussian(default)",
			"gaussian(mean=500, std=1)",
			"constant(7)",
			"constant(random)",
			"set(n=4, mean=0, std=210)",
			"gaussian(default) | sparsify(50%)",
			"gaussian(default) | sort(rows, 100%)",
		},
		SampleOutputs: 128,
		Seed:          1,
	}
}

func (c TrainingConfig) withDefaults() TrainingConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = DefaultTraining().Sizes
	}
	if len(c.Patterns) == 0 {
		c.Patterns = DefaultTraining().Patterns
	}
	if c.SampleOutputs <= 0 {
		c.SampleOutputs = 128
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// TrainingSamples runs the sweep on a device for one datatype and
// returns one sample per (size, pattern) pair, in sweep order.
func TrainingSamples(dev *device.Device, dt matrix.DType, cfg TrainingConfig) ([]power.Sample, error) {
	cfg = cfg.withDefaults()
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	pats := make([]patterns.Pattern, len(cfg.Patterns))
	for i, dsl := range cfg.Patterns {
		p, err := patterns.Parse(dsl)
		if err != nil {
			return nil, fmt.Errorf("experiments: training pattern %q: %w", dsl, err)
		}
		pats[i] = p
	}

	type job struct{ si, pi int }
	jobs := make([]job, 0, len(cfg.Sizes)*len(pats))
	for si := range cfg.Sizes {
		for pi := range pats {
			jobs = append(jobs, job{si, pi})
		}
	}
	samples := make([]power.Sample, len(jobs))
	errs := make([]error, len(jobs))
	fanOut(len(jobs), cfg.Workers, func(idx int) {
		j := jobs[idx]
		samples[idx], errs[idx] = trainingRun(dev, dt, cfg, cfg.Sizes[j.si], pats[j.pi], j.pi)
	})

	for idx, err := range errs {
		if err != nil {
			j := jobs[idx]
			return nil, fmt.Errorf("experiments: training size %d pattern %q: %w",
				cfg.Sizes[j.si], cfg.Patterns[j.pi], err)
		}
	}
	return samples, nil
}

// trainingRun measures one (size, pattern) sweep point.
func trainingRun(dev *device.Device, dt matrix.DType, cfg TrainingConfig, size int, pat patterns.Pattern, pi int) (power.Sample, error) {
	// Distinct streams per pattern so corpora with repeated bases still
	// produce independent draws; A and B always differ (§III).
	a, b := core.Operands(dt, size, pat, cfg.Seed+uint64(pi)*7919, "training/"+pat.Name)
	ch, err := core.RunChain(dev, dt, a, b, core.ChainSpec{TransposeB: true, SampleOutputs: cfg.SampleOutputs})
	if err != nil {
		return power.Sample{}, err
	}
	return power.SampleOf(ch.Activity, ch.Power), nil
}

// TrainPredictor runs the sweep and fits the §V model, returning the
// predictor with its in-sample R² and the number of sweep samples it
// was fitted on.
func TrainPredictor(dev *device.Device, dt matrix.DType, cfg TrainingConfig) (*power.Predictor, float64, int, error) {
	samples, err := TrainingSamples(dev, dt, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	pred, err := power.Train(samples)
	if err != nil {
		return nil, 0, 0, err
	}
	return pred, pred.RSquared(samples), len(samples), nil
}
