// Package kernels models the CUTLASS-style tiled GEMM launches the
// paper runs (§II–§III): the threadblock tile shape, wave scheduling
// onto SMs, and the Problem each of the paper's four datatype setups
// launches. It computes no products: the chain reads operand bits
// (internal/activity), not GEMM outputs.
//
// Two things about the kernel matter for input-dependent power:
//
//  1. The streaming order of operands through the datapath — each
//     output element's lane consumes A row-major and B column-major
//     along the reduction dimension k, which determines which adjacent
//     value pairs toggle the operand buses (internal/activity).
//  2. The threadblock tiling and wave quantization — how many tiles run
//     concurrently on the SMs determines utilization and therefore the
//     sustained power at a given problem size (internal/power).
package kernels

import (
	"fmt"

	"repro/internal/matrix"
)

// TileConfig is a CUTLASS-style threadblock tile shape.
type TileConfig struct {
	// BlockM × BlockN is the output tile one threadblock produces;
	// BlockK is the k-slice staged through shared memory per mainloop
	// iteration.
	BlockM, BlockN, BlockK int
}

// DefaultTile returns the tile shape a CUTLASS device-level GEMM would
// pick for the datatype on Ampere-class parts.
func DefaultTile(dt matrix.DType) TileConfig {
	switch dt {
	case matrix.FP16T, matrix.BF16T:
		// Tensor-core kernels run larger tiles to feed the MMA units.
		return TileConfig{BlockM: 128, BlockN: 128, BlockK: 64}
	case matrix.INT8:
		return TileConfig{BlockM: 128, BlockN: 128, BlockK: 64}
	default:
		return TileConfig{BlockM: 128, BlockN: 128, BlockK: 32}
	}
}

// SelectTile returns a shape-aware tile: the dtype default for large
// outputs, with BlockM/BlockN shrunk (to a power of two, minimum 8) for
// skinny outputs the way cuBLAS heuristics pick smaller tiles for
// GEMV-like shapes. Without this, a batch-8 LLM decode GEMM would waste
// 15/16 of every 128-row tile and look compute-bound when the real
// kernel is memory-bound.
func SelectTile(dt matrix.DType, n, m int) TileConfig {
	t := DefaultTile(dt)
	t.BlockM = shrinkTo(t.BlockM, n)
	t.BlockN = shrinkTo(t.BlockN, m)
	return t
}

// shrinkTo reduces a tile dimension to the smallest power of two ≥ dim
// (minimum 8) when dim is below the default block size.
func shrinkTo(block, dim int) int {
	if dim >= block {
		return block
	}
	p := 8
	for p < dim {
		p <<= 1
	}
	return p
}

// Validate checks that the tile shape is usable.
func (t TileConfig) Validate() error {
	if t.BlockM <= 0 || t.BlockN <= 0 || t.BlockK <= 0 {
		return fmt.Errorf("kernels: non-positive tile dims %+v", t)
	}
	return nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// NumTiles returns the number of threadblocks launched for an (N,M)
// output.
func (t TileConfig) NumTiles(n, m int) int {
	return ceilDiv(n, t.BlockM) * ceilDiv(m, t.BlockN)
}

// Waves returns the number of scheduling waves for the given tile count
// on smCount SMs (one resident block per SM, the CUTLASS default for
// these large tiles).
func Waves(tiles, smCount int) int {
	if tiles <= 0 {
		return 0
	}
	return ceilDiv(tiles, smCount)
}

// Utilization returns the average fraction of SMs busy across all
// waves: full waves run every SM; the tail wave runs only the leftover
// blocks. This wave quantization is why a 2048² GEMM holds an A100
// around 80 % of peak sustained power while 4096² pushes it toward the
// TDP limit.
func Utilization(tiles, smCount int) float64 {
	if tiles <= 0 || smCount <= 0 {
		return 0
	}
	waves := Waves(tiles, smCount)
	full := tiles / smCount
	tail := tiles - full*smCount
	u := float64(full)
	if tail > 0 {
		u += float64(tail) / float64(smCount)
	}
	return u / float64(waves)
}

// Problem describes one GEMM launch: A is (N,K) and Bop, the operand
// layout the kernel consumes, is (K,M).
type Problem struct {
	DType matrix.DType
	A     *matrix.Matrix // (N, K)
	B     *matrix.Matrix // (K, M), already transposed if the experiment calls for it
	Tile  TileConfig

	// BTransposed marks that B stores the (K,M) operand as its
	// transpose: an (M,K) row-major matrix whose row j is operand
	// column j. The paper's default consumes Bᵀ of a generated
	// matrix, so callers can hand over the generated matrix directly
	// and skip materializing the transpose; an operand column is then
	// a stored row.
	BTransposed bool
}

// NewProblem builds a Problem with the default tile for the datatype.
func NewProblem(dt matrix.DType, a, b *matrix.Matrix) *Problem {
	return &Problem{
		DType: dt,
		A:     a,
		B:     b,
		Tile:  DefaultTile(dt),
	}
}

// NewTransposedProblem builds a Problem whose B operand is g's
// transpose without materializing it: the kernel consumes g's rows as
// operand columns. Equivalent to NewProblem(dt, a, g.Transpose())
// bit-for-bit; activity's TestTransposedStorageBitIdentical holds
// Analyze to that.
func NewTransposedProblem(dt matrix.DType, a, g *matrix.Matrix) *Problem {
	p := NewProblem(dt, a, g)
	p.BTransposed = true
	return p
}

// BDims returns the logical (K, M) shape of the B operand, accounting
// for transposed storage.
func (p *Problem) BDims() (rows, cols int) {
	if p.BTransposed {
		return p.B.Cols, p.B.Rows
	}
	return p.B.Rows, p.B.Cols
}

// BAt returns the logical B operand element at (kk, j), accounting for
// transposed storage.
// Only tests call it: refSampleWalk, the reference of
// FuzzWalkMatchesLanes.
func (p *Problem) BAt(kk, j int) uint32 {
	if p.BTransposed {
		return p.B.At(j, kk)
	}
	return p.B.At(kk, j)
}

// Dims returns (N, K, M).
func (p *Problem) Dims() (n, k, m int) {
	_, m = p.BDims()
	return p.A.Rows, p.A.Cols, m
}

// MACs returns the number of multiply-accumulate operations one
// iteration performs.
func (p *Problem) MACs() int64 {
	n, k, m := p.Dims()
	return int64(n) * int64(k) * int64(m)
}

// Validate checks shape compatibility and datatype consistency.
func (p *Problem) Validate() error {
	if p.A == nil || p.B == nil {
		return fmt.Errorf("kernels: nil operand")
	}
	if p.A.DType != p.DType || p.B.DType != p.DType {
		return fmt.Errorf("kernels: operand dtype mismatch (problem %v, A %v, B %v)",
			p.DType, p.A.DType, p.B.DType)
	}
	bRows, bCols := p.BDims()
	if p.A.Cols != bRows {
		return fmt.Errorf("kernels: inner dimensions disagree: A is %dx%d, B is %dx%d",
			p.A.Rows, p.A.Cols, bRows, bCols)
	}
	return p.Tile.Validate()
}
