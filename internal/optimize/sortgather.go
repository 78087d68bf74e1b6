package optimize

import (
	"fmt"
	"sort"

	"repro/internal/bitops"
	"repro/internal/matrix"
	"repro/internal/rng"
)

// This file holds the two stronger placement optimizations:
//
//   - SortPerNeuron — the Fig. 5-scale lever. Each neuron's weights are
//     sorted along the reduction dimension independently, which makes
//     the operand stream each FMA lane consumes monotone (adjacent
//     values are order statistics of each other, so their bit patterns
//     are highly similar). It is computation-preserving only on
//     runtimes that can gather each neuron's inputs through its own
//     permutation (per-neuron index tables); the function returns those
//     tables.
//
//   - OrderRowsByToggles — a single global reduction-dimension
//     permutation (free to apply via the upstream layer) chosen
//     greedily to minimize the measured toggle distance between
//     consecutive rows, rather than a scale proxy. Related in spirit to learned row-permutation work for
//     sparse GEMM (Mehrabi et al.) and toggle-aware compression
//     (Pekhimenko et al.). Gains are honest but modest on unstructured
//     weights: a single permutation cannot sort every column at once.

// SortPerNeuronResult carries the per-neuron gather tables.
type SortPerNeuronResult struct {
	// Gather[j] maps new k position → original k index for output
	// neuron j (column j of the operand-layout weight matrix). The
	// runtime must feed neuron j its inputs through this table:
	// y_j = Σ_k W'[k,j] · x[Gather[j][k]].
	Gather [][]int
}

// SortPerNeuron sorts each column of an operand-layout weight matrix
// (K, M) ascending by value and returns the per-neuron gather tables
// that keep the computation identical. This realizes the paper's §IV-C
// "sorted within rows" savings (T11) on real weights, at the cost of a
// gather-capable kernel.
func SortPerNeuron(w *matrix.Matrix) SortPerNeuronResult {
	gather := make([][]int, w.Cols)
	col := make([]uint32, w.Rows)
	for j := 0; j < w.Cols; j++ {
		for i := 0; i < w.Rows; i++ {
			col[i] = w.At(i, j)
		}
		perm := make([]int, w.Rows)
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool {
			return w.DType.Decode(col[perm[a]]) < w.DType.Decode(col[perm[b]])
		})
		for newI, origI := range perm {
			w.Set(newI, j, col[origI])
		}
		gather[j] = perm
	}
	return SortPerNeuronResult{Gather: gather}
}

// GatherApply computes one neuron's dot product through its gather
// table, the reference semantics of a gather-capable kernel; used to
// verify equivalence.
func GatherApply(w *matrix.Matrix, j int, gather []int, x []float64) (float64, error) {
	if len(gather) != w.Rows || len(x) != w.Rows {
		return 0, fmt.Errorf("optimize: gather/input length mismatch")
	}
	var acc float64
	for k := 0; k < w.Rows; k++ {
		acc += w.Value(k, j) * x[gather[k]]
	}
	return acc, nil
}

// OrderRowsByTogglesResult carries the chosen global permutation.
type OrderRowsByTogglesResult struct {
	// Perm maps new k → original k, applied to the weight rows; the
	// activation columns (or upstream neurons) must follow it.
	Perm []int
	// EstimatedBefore/After are the sampled per-adjacent-row toggle
	// counts the greedy pass observed.
	EstimatedBefore int64
	EstimatedAfter  int64
}

// OrderRowsByToggles greedily orders the rows of an operand-layout
// weight matrix to minimize bit toggles between consecutive rows,
// estimating row distances on sampleCols sampled columns (0 = all
// columns; sampling keeps the O(K²) pass fast). Grouping similar rows
// makes consecutive operands share exponent and high-mantissa bits,
// cutting operand-bus toggles (§IV-C). The permutation is
// computation-preserving when the activations' columns (the upstream
// layer's neurons) are permuted to match (PermuteColumns): each output
// element still sums exactly the same products, in a different order.
func OrderRowsByToggles(w *matrix.Matrix, sampleCols int, src *rng.Source) OrderRowsByTogglesResult {
	k := w.Rows
	cols := columnsSample(w.Cols, sampleCols, src)

	dist := func(a, b int) int64 {
		ra, rb := w.Row(a), w.Row(b)
		var d int64
		for _, j := range cols {
			d += int64(bitops.Toggle32(ra[j], rb[j]))
		}
		return d
	}

	var before int64
	for i := 0; i+1 < k; i++ {
		before += dist(i, i+1)
	}

	// Greedy nearest-neighbor chain starting from row 0.
	visited := make([]bool, k)
	perm := make([]int, 0, k)
	cur := 0
	visited[0] = true
	perm = append(perm, 0)
	for len(perm) < k {
		best, bestD := -1, int64(1<<62)
		for cand := 0; cand < k; cand++ {
			if visited[cand] {
				continue
			}
			if d := dist(cur, cand); d < bestD {
				best, bestD = cand, d
			}
		}
		visited[best] = true
		perm = append(perm, best)
		cur = best
	}

	applyRowPerm(w, perm)
	var after int64
	for i := 0; i+1 < k; i++ {
		after += dist(i, i+1)
	}
	return OrderRowsByTogglesResult{Perm: perm, EstimatedBefore: before, EstimatedAfter: after}
}

func columnsSample(total, want int, src *rng.Source) []int {
	if want <= 0 || want >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := src.Perm(total)
	cols := append([]int(nil), perm[:want]...)
	sort.Ints(cols)
	return cols
}
