// Package optimize implements the paper's §V future-work directions as
// usable transformations over model weight matrices:
//
//   - MeanShift — move weight values toward larger means, which §IV-A
//     (T2) shows reduces FP power;
//   - OrderRowsByToggles and SortPerNeuron — permutations of the
//     reduction dimension that exploit the §IV-C placement savings
//     while computing the same function (sortgather.go);
//   - MagnitudePrune — power-aware sparsity masks (§IV-D, T12).
//
// Each transformation reports how to undo or account for its effect so
// the surrounding network computes the same result.
package optimize

import (
	"fmt"
	"sort"

	"repro/internal/matrix"
)

// MeanShiftResult describes a weight shift W' = W + delta.
type MeanShiftResult struct {
	// DeltaPerCol is the constant added to each weight column; the
	// layer's bias must be corrected by -Σ delta·x̄ terms downstream, or
	// the shift folded into a preceding normalization.
	Delta float64
}

// MeanShift adds a constant to every weight so the matrix mean becomes
// targetMean (T2: larger means reduce FP power). It returns the applied
// delta so callers can compensate: for a linear layer y = Wx + b, using
// W' = W + Δ·1 requires b' = b - Δ·(1ᵀx)·1 at runtime, or an exact fold
// when x is normalized with known mean.
func MeanShift(w *matrix.Matrix, targetMean float64) MeanShiftResult {
	mean, _ := w.ValueStats()
	delta := targetMean - mean
	for i := range w.Bits {
		w.Bits[i] = w.DType.Encode(w.DType.Decode(w.Bits[i]) + delta)
	}
	return MeanShiftResult{Delta: delta}
}

// applyRowPerm reorders w's rows so that new row i is original row
// perm[i].
func applyRowPerm(w *matrix.Matrix, perm []int) {
	orig := w.Clone()
	for newIdx, origIdx := range perm {
		copy(w.Row(newIdx), orig.Row(origIdx))
	}
}

// PermuteColumns applies a column permutation (new → old) to a matrix —
// how an activation matrix follows its producer's neuron reordering.
func PermuteColumns(m *matrix.Matrix, perm []int) error {
	if len(perm) != m.Cols {
		return fmt.Errorf("optimize: permutation length %d does not match cols %d", len(perm), m.Cols)
	}
	orig := m.Clone()
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		origRow := orig.Row(i)
		for newJ, origJ := range perm {
			row[newJ] = origRow[origJ]
		}
	}
	return nil
}

// PruneResult describes a sparsity mask application.
type PruneResult struct {
	// Pruned is the number of weights set to zero.
	Pruned int
	// TargetSparsity and AchievedSparsity in [0,1].
	TargetSparsity   float64
	AchievedSparsity float64
}

// MagnitudePrune zeroes the fraction of weights with the smallest
// absolute values — the classic accuracy-friendly mask — which §IV-D
// shows also reduces power (T12). Ties break deterministically by
// position.
func MagnitudePrune(w *matrix.Matrix, sparsity float64) PruneResult {
	if sparsity < 0 {
		sparsity = 0
	}
	if sparsity > 1 {
		sparsity = 1
	}
	n := len(w.Bits)
	k := int(sparsity*float64(n) + 0.5)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	vals := w.Values()
	abs := func(v float64) float64 {
		if v < 0 {
			return -v
		}
		return v
	}
	sort.SliceStable(idx, func(a, b int) bool { return abs(vals[idx[a]]) < abs(vals[idx[b]]) })
	for _, i := range idx[:k] {
		w.Bits[i] = 0
	}
	zeros := 0
	for _, b := range w.Bits {
		if b == 0 {
			zeros++
		}
	}
	return PruneResult{
		Pruned:           k,
		TargetSparsity:   sparsity,
		AchievedSparsity: float64(zeros) / float64(n),
	}
}
