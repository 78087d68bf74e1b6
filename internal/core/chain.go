package core

import (
	"repro/internal/activity"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/power"
	"repro/internal/rng"
)

// activitySeed fixes the activity sampler's output positions, so
// configurations differ only in their inputs.
const activitySeed = 0xAC71

// ChainSpec selects how RunChain stages one GEMM.
type ChainSpec struct {
	// TransposeB hands the generated B to the kernel as transposed
	// storage — the paper's Bᵀ default — without materializing the
	// transpose (bit-identical results, no copy).
	TransposeB bool
	// Tile overrides the CUTLASS-style tile shape (zero = dtype
	// default).
	Tile kernels.TileConfig
	// SampleOutputs bounds the sampled activity terms (0 = default).
	SampleOutputs int
	// AStats and BStats are optional memoized operand statistics, in
	// the orientations activity.AnalyzeWithStats documents; nil scans
	// that operand.
	AStats, BStats *activity.OperandStats
}

// Chain is one run of the §III measurement chain up to the noise-free
// power model: the tiled problem, its switching activity and the
// steady-state power result. DCGM-style sampling (telemetry.Measure)
// is left to the caller, which owns the iteration count and noise
// seed.
type Chain struct {
	Problem  *kernels.Problem
	Activity *activity.Report
	Power    *power.Result
}

// RunChain tiles the GEMM of a and the generated b, extracts its
// switching activity and evaluates the power model on dev. dt is the
// problem datatype; it is passed rather than read from a because one
// storage encoding serves several datatypes (FP16 and FP16-T share
// bits but not tiles or energy coefficients).
func RunChain(dev *device.Device, dt matrix.DType, a, b *matrix.Matrix, spec ChainSpec) (*Chain, error) {
	var prob *kernels.Problem
	if spec.TransposeB {
		prob = kernels.NewTransposedProblem(dt, a, b)
	} else {
		prob = kernels.NewProblem(dt, a, b)
	}
	if spec.Tile != (kernels.TileConfig{}) {
		prob.Tile = spec.Tile
	}
	rep, err := activity.AnalyzeWithStats(prob, activity.Config{
		SampleOutputs: spec.SampleOutputs,
		Seed:          activitySeed,
	}, spec.AStats, spec.BStats)
	if err != nil {
		return nil, err
	}
	res, err := power.Evaluate(dev, prob, rep)
	if err != nil {
		return nil, err
	}
	return &Chain{Problem: prob, Activity: rep, Power: res}, nil
}

// Operands fills size×size A and B with the pattern from one labelled
// base stream: A and B draw from distinct child streams of it (§III),
// so callers that label their streams apart (the serving layer, the
// training sweep) never share draws.
func Operands(dt matrix.DType, size int, pat patterns.Pattern, seed uint64, label string) (a, b *matrix.Matrix) {
	base := rng.Derive(seed, label)
	a = matrix.New(dt, size, size)
	pat.Apply(a, rng.Derive(base.Uint64(), "A"))
	b = matrix.New(dt, size, size)
	pat.Apply(b, rng.Derive(base.Uint64(), "B"))
	return a, b
}
