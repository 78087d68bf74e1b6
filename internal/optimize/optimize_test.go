package optimize

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/rng"
)

func weightMatrix(dt matrix.DType, n int, seed uint64) *matrix.Matrix {
	w := matrix.New(dt, n, n)
	matrix.FillGaussian(w, rng.New(seed), 0, 0.02*float64(n)) // LLM-ish scale, widened for bit variety
	return w
}

func TestMeanShift(t *testing.T) {
	w := weightMatrix(matrix.FP32, 64, 1)
	res := MeanShift(w, 10)
	mean, _ := w.ValueStats()
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("shifted mean = %v, want ≈10", mean)
	}
	if math.Abs(res.Delta-10) > 0.5 {
		t.Errorf("delta = %v, want ≈10 for zero-mean weights", res.Delta)
	}
}

func TestMeanShiftPreservesSpread(t *testing.T) {
	w := weightMatrix(matrix.FP32, 64, 2)
	_, stdBefore := w.ValueStats()
	MeanShift(w, 100)
	_, stdAfter := w.ValueStats()
	if math.Abs(stdBefore-stdAfter)/stdBefore > 0.02 {
		t.Errorf("mean shift should preserve spread: %v vs %v", stdBefore, stdAfter)
	}
}

func TestMagnitudePrune(t *testing.T) {
	w := weightMatrix(matrix.FP32, 32, 5)
	vals := w.Values()
	abs := make([]float64, len(vals))
	for i, v := range vals {
		abs[i] = math.Abs(v)
	}
	sort.Float64s(abs)
	threshold := abs[len(abs)/2]

	res := MagnitudePrune(w, 0.5)
	if math.Abs(res.AchievedSparsity-0.5) > 0.01 {
		t.Errorf("achieved sparsity %v, want ≈0.5", res.AchievedSparsity)
	}
	// All surviving weights are at least the threshold magnitude.
	for _, v := range w.Values() {
		if v != 0 && math.Abs(v) < threshold-1e-9 {
			t.Fatalf("kept weight %v below prune threshold %v", v, threshold)
		}
	}
}

func TestMagnitudePruneClamps(t *testing.T) {
	w := weightMatrix(matrix.FP32, 8, 6)
	res := MagnitudePrune(w, 1.5)
	if res.AchievedSparsity != 1 {
		t.Error("sparsity above 1 should clamp to full prune")
	}
	w2 := weightMatrix(matrix.FP32, 8, 6)
	res2 := MagnitudePrune(w2, -0.5)
	if res2.Pruned != 0 {
		t.Error("negative sparsity should prune nothing")
	}
}

// scaleStructuredWeights builds an operand-layout weight matrix (K, M)
// whose rows span several binades of scale in shuffled order — the
// per-channel scale structure LLM weight matrices commonly show.
func scaleStructuredWeights(dt matrix.DType, k, m int, seed uint64) *matrix.Matrix {
	w := matrix.New(dt, k, m)
	src := rng.New(seed)
	scales := make([]float64, k)
	for i := range scales {
		scales[i] = math.Exp2(6 * float64(i) / float64(k)) // 1x .. 64x
	}
	src.Shuffle(k, func(a, b int) { scales[a], scales[b] = scales[b], scales[a] })
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			w.SetValue(i, j, src.Gaussian(0, scales[i]))
		}
	}
	return w
}

func TestSortReductionDimReducesPowerAndPreservesOutputs(t *testing.T) {
	// The §V payoff: permuting the shared reduction dimension (weights'
	// rows + activations' columns) into toggle order cuts power while
	// computing the same result — the permutation-invariant
	// transformation in action.
	sim, err := core.NewSimulator(device.A100PCIe())
	if err != nil {
		t.Fatal(err)
	}
	const size = 160
	dt := matrix.FP16

	acts := matrix.New(dt, size, size)
	patterns.Gaussian(0, 1).Apply(acts, rng.Derive(1, "acts"))
	weights := scaleStructuredWeights(dt, size, size, 2)

	// Operands are already in layout; no extra transpose.
	opts := core.DefaultOptions()
	opts.TransposeB = false

	before, err := sim.MeasureGEMM(acts.Clone(), weights.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}

	sortedW := weights.Clone()
	res := OrderRowsByToggles(sortedW, 0, nil)
	permActs := acts.Clone()
	if err := PermuteColumns(permActs, res.Perm); err != nil {
		t.Fatal(err)
	}
	after, err := sim.MeasureGEMM(permActs, sortedW, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.AvgPowerW >= before.AvgPowerW {
		t.Errorf("reduction-dim sorting should reduce power: %v vs %v",
			after.AvgPowerW, before.AvgPowerW)
	}

	// Equivalence: each output element sums the same products. INT8
	// checks this exactly; FP16 reduction reorders roundings, so use a
	// small INT8 replica for the bit-exact check. Wrapping int32 sums
	// do not depend on order, so the permuted product must match.
	ai := matrix.New(matrix.INT8, 24, 24)
	patterns.Gaussian(0, 25).Apply(ai, rng.Derive(3, "acts"))
	wi := scaleStructuredWeights(matrix.INT8, 24, 24, 4)
	wiSorted := wi.Clone()
	resI := OrderRowsByToggles(wiSorted, 0, nil)
	aiPerm := ai.Clone()
	if err := PermuteColumns(aiPerm, resI.Perm); err != nil {
		t.Fatal(err)
	}
	origOut, permOut := int8Product(ai, wi), int8Product(aiPerm, wiSorted)
	for i := range origOut {
		if origOut[i] != permOut[i] {
			t.Fatalf("INT8 outputs differ at %d: %v vs %v", i, origOut[i], permOut[i])
		}
	}
}

// int8Product returns A·B for INT8 operands, reduced in int32 as the
// DP4A datapath does.
func int8Product(a, b *matrix.Matrix) []int32 {
	out := make([]int32, a.Rows*b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc int32
			for kk := 0; kk < a.Cols; kk++ {
				acc += int32(int8(a.At(i, kk))) * int32(int8(b.At(kk, j)))
			}
			out[i*b.Cols+j] = acc
		}
	}
	return out
}

// The §V payoff test: shifting and pruning must reduce simulated power
// on LLM-style weights.
func TestOptimizationsReducePower(t *testing.T) {
	sim, err := core.NewSimulator(device.A100PCIe())
	if err != nil {
		t.Fatal(err)
	}
	const size = 160
	dt := matrix.FP16
	opts := core.DefaultOptions()

	measure := func(transform func(*matrix.Matrix)) float64 {
		a := matrix.New(dt, size, size)
		b := matrix.New(dt, size, size)
		patterns.Gaussian(0, 2).Apply(a, rng.Derive(1, "A"))
		patterns.Gaussian(0, 2).Apply(b, rng.Derive(1, "B"))
		if transform != nil {
			transform(a)
			transform(b)
		}
		m, err := sim.MeasureGEMM(a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m.AvgPowerW
	}

	baseline := measure(nil)
	shifted := measure(func(w *matrix.Matrix) { MeanShift(w, 64) })
	pruned := measure(func(w *matrix.Matrix) { MagnitudePrune(w, 0.5) })

	if shifted >= baseline {
		t.Errorf("mean shift should reduce power: %v vs %v", shifted, baseline)
	}
	if pruned >= baseline {
		t.Errorf("magnitude pruning should reduce power: %v vs %v", pruned, baseline)
	}
}

func TestSortNeuronsPowerNeutralForOwnGEMM(t *testing.T) {
	// Documented property: permuting output neurons does not change the
	// layer's own operand streams, so its exact activity is unchanged.
	sim, err := core.NewSimulator(device.A100PCIe())
	if err != nil {
		t.Fatal(err)
	}
	dt := matrix.FP16
	acts := matrix.New(dt, 96, 96)
	patterns.Gaussian(0, 1).Apply(acts, rng.Derive(7, "acts"))
	w := scaleStructuredWeights(dt, 96, 96, 8)
	opts := core.DefaultOptions()
	opts.TransposeB = false

	// Output dim of the operand-layout weight matrix is columns; the
	// neuron perm acts on the producing layer's rows, i.e. here we
	// permute columns of W and confirm activity-neutrality.
	before, err := sim.MeasureGEMM(acts.Clone(), w.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wPerm := w.Clone()
	perm := rng.New(11).Perm(w.Cols)
	if err := PermuteColumns(wPerm, perm); err != nil {
		t.Fatal(err)
	}
	after, err := sim.MeasureGEMM(acts.Clone(), wPerm, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Exact activity terms are invariant; sampled terms may differ
	// slightly because samples land on different output columns.
	if before.Activity.OperandToggles != after.Activity.OperandToggles {
		t.Error("output-dim permutation must not change operand toggles")
	}
	if before.Activity.MultPPUnits != after.Activity.MultPPUnits {
		t.Error("output-dim permutation must not change multiplier activity")
	}
}
