// Package activity extracts the switching-activity profile of a GEMM
// execution from its input matrices — the quantity the paper
// hypothesizes GPU power actually depends on (§V: bit flips during
// computation and the number of set bits).
//
// For D = A·B with A:(N,K) and B:(K,M) in operand layout, the per-lane
// datapath of the kernel consumes, for output element (i,j), the stream
// A[i,0..K-1] against B[0..K-1,j]. The total activity decomposes into:
//
//   - Operand toggles — bits flipped at the FMA/MMA input latches
//     between consecutive k-iterations. Exact in O(NK+KM):
//     Σ_{i,j,k} tog(A[i,k],A[i,k+1]) = M·Σ_{i,k} tog(A[i,k],A[i,k+1]),
//     and symmetrically N·(column toggles of B).
//   - Multiplier partial products — HW(sig(a))·HW(sig(b)) array cells
//     active per MAC, with zero operands gating the array. Exact in
//     O(NK+KM) because Σ_{i,j,k} g(a)h(b) = Σ_k (Σ_i g)(Σ_j h).
//   - Stream toggles — bus activity of staging A and B tiles through
//     DRAM/L2/shared memory, the row/column toggle sums scaled by the
//     tile reuse factors of the CUTLASS-style tiling.
//   - Product and accumulator toggles — register flips between
//     consecutive products and partial sums. These depend on the actual
//     arithmetic trajectory, so they are measured on a deterministic
//     sample of output positions (exact dtype arithmetic along k) and
//     scaled to the full output.
//
// The report also carries the paper's Fig. 8 statistics: mean bit
// alignment between multiplied operand pairs and mean Hamming weights.
package activity

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitops"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/rng"
	"repro/internal/softfloat"
)

// Config controls activity extraction.
type Config struct {
	// Tile is the threadblock tiling, which sets the stream reuse
	// factors. Zero value means the dtype default.
	Tile kernels.TileConfig
	// SampleOutputs is the number of distinct output positions whose
	// product and accumulator trajectories are walked exactly. Zero
	// means the default of 512. Positions are drawn without replacement
	// (a partial Fisher–Yates over the output index space) and are
	// deterministic given Seed.
	SampleOutputs int
	// Seed drives sample-position selection. Experiments share a fixed
	// seed so that configurations differ only in their inputs.
	Seed uint64
}

// DefaultSampleOutputs is the default number of sampled accumulator
// trajectories.
const DefaultSampleOutputs = 512

// Report is the switching-activity profile of one GEMM iteration.
// Toggle and partial-product counts are totals over the whole iteration.
type Report struct {
	MACs int64

	// Exact terms.
	OperandToggles int64 // operand-latch bit flips, A-side + B-side
	MultPPUnits    int64 // Σ HW(sig a)·HW(sig b) over all MACs
	StreamToggles  int64 // memory-hierarchy bus bit flips incl. reuse

	// Sampled terms, scaled to the full iteration.
	ProductToggles float64 // multiplier output register bit flips
	AccumToggles   float64 // accumulator register bit flips

	// Fig. 8 statistics.
	MeanAlignment float64 // mean bit alignment of multiplied pairs
	MeanHammingA  float64 // mean Hamming weight per element of A
	MeanHammingB  float64
	NonZeroFrac   float64 // fraction of MACs with both operands non-zero
}

// PerMAC returns the report normalized per multiply-accumulate.
type PerMAC struct {
	OperandToggles float64
	MultPPUnits    float64
	StreamToggles  float64
	ProductToggles float64
	AccumToggles   float64
}

// PerMAC normalizes the totals by the MAC count.
func (r *Report) PerMAC() PerMAC {
	if r.MACs == 0 {
		return PerMAC{}
	}
	n := float64(r.MACs)
	return PerMAC{
		OperandToggles: float64(r.OperandToggles) / n,
		MultPPUnits:    float64(r.MultPPUnits) / n,
		StreamToggles:  float64(r.StreamToggles) / n,
		ProductToggles: r.ProductToggles / n,
		AccumToggles:   r.AccumToggles / n,
	}
}

// Analyze extracts the activity report for the problem. A and B must be
// in operand layout (B already transposed if the experiment transposes
// it, or carried as transposed storage via Problem.BTransposed).
// Analyze always performs full operand rescans — it is the reference
// path the incremental stats are verified against.
func Analyze(p *kernels.Problem, cfg Config) (*Report, error) {
	return AnalyzeWithStats(p, cfg, nil, nil)
}

// AnalyzeWithStats is Analyze with optionally precomputed operand
// statistics: stA for A in its row-stream orientation (ScanA), stB for
// the logical B operand in its column-stream orientation (ScanB of the
// operand, which equals ScanA of the stored matrix when the problem
// stores B transposed). A nil argument falls back to a full scan of
// that operand, so Analyze ≡ AnalyzeWithStats(p, cfg, nil, nil).
// Reports are bit-identical to the full-rescan path as long as the
// stats describe the operands actually passed.
func AnalyzeWithStats(p *kernels.Problem, cfg Config, stA, stB *OperandStats) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tile == (kernels.TileConfig{}) {
		cfg.Tile = p.Tile
	}
	if cfg.SampleOutputs <= 0 {
		cfg.SampleOutputs = DefaultSampleOutputs
	}

	n, k, m := p.Dims()
	r := &Report{MACs: p.MACs()}

	// One fused pass per unscanned operand computes every exact term
	// at once — toggles, per-k-slice significand sums, Hamming weight,
	// non-zero count — instead of re-streaming the matrix once per
	// statistic.
	scanBOp := func() *OperandStats {
		if p.BTransposed {
			// Operand columns are stored rows: the row-stream scan
			// of the stored matrix IS the operand's column-stream
			// profile (the transpose stats remap).
			return ScanA(p.B)
		}
		return ScanB(p.B)
	}
	switch {
	case stA == nil && stB == nil && runtime.GOMAXPROCS(0) > 1:
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			stA = ScanA(p.A)
		}()
		stB = scanBOp()
		wg.Wait()
	default:
		if stA == nil {
			stA = ScanA(p.A)
		}
		if stB == nil {
			stB = scanBOp()
		}
	}

	var ppUnits int64
	for kk := 0; kk < k; kk++ {
		ppUnits += stA.Sig[kk] * stB.Sig[kk]
	}

	aRowToggles := stA.Toggles
	bColToggles := stB.Toggles
	r.OperandToggles = int64(m)*aRowToggles + int64(n)*bColToggles
	r.MultPPUnits = ppUnits
	r.MeanHammingA = float64(stA.Hamming) / float64(len(p.A.Bits))
	r.MeanHammingB = float64(stB.Hamming) / float64(len(p.B.Bits))
	// Independent placement approximation for the gating fraction; the
	// sampled walk refines alignment but the zero fractions are exact.
	nzA := float64(stA.NonZero) / float64(len(p.A.Bits))
	nzB := float64(stB.NonZero) / float64(len(p.B.Bits))
	r.NonZeroFrac = nzA * nzB

	// Stream toggles: each A tile row panel is re-streamed once per
	// column block of the output, each B panel once per row block.
	reuseA := int64(ceilDiv(m, cfg.Tile.BlockN))
	reuseB := int64(ceilDiv(n, cfg.Tile.BlockM))
	r.StreamToggles = reuseA*aRowToggles + reuseB*bColToggles

	sampleWalk(p, cfg, r)
	return r, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// OperandStats are the exact aggregates one fused scan extracts from an
// operand, in the operand's stream orientation: adjacent-element
// toggles along the k stream, per-k-slice significand-weight sums,
// total Hamming weight, and the non-zero element count. They are the
// memoizable part of Analyze — everything in a Report except the
// sampled trajectories derives from the two operands' OperandStats.
type OperandStats struct {
	Toggles int64   // adjacent toggles along the operand's k stream
	Sig     []int64 // Σ HW(sig ·) per k-slice
	Hamming int64   // total Hamming weight over the lane width
	NonZero int64   // elements with a non-zero bit pattern
}

// clone copies st with its own Sig backing.
func (st *OperandStats) clone() *OperandStats {
	ns := *st
	ns.Sig = append([]int64(nil), st.Sig...)
	return &ns
}

// sigTab16 returns the per-dtype significand-weight table for the
// lanes that fit a 16-bit index, or nil for FP32 (which computes its
// weight inline). Table indexing keeps the scan loops free of
// per-element indirect calls.
func sigTab16(dt matrix.DType) *[1 << 16]uint8 {
	switch dt {
	case matrix.FP16, matrix.FP16T:
		return softfloat.SigPop16Table()
	case matrix.BF16T:
		return softfloat.SigPopBF16Table()
	case matrix.INT8:
		return softfloat.MagPopI8WideTable()
	default:
		return nil
	}
}

// ScanA streams a matrix row-major once and returns its full
// OperandStats in row-stream orientation (the A operand's stream;
// also the B operand's stream when B is carried as transposed
// storage): per-column significand sums, adjacent-element toggles
// along rows, total Hamming weight, and the non-zero count. It is
// AddRow over every row.
func ScanA(mt *matrix.Matrix) *OperandStats {
	st := &OperandStats{Sig: make([]int64, mt.Cols)}
	for i := 0; i < mt.Rows; i++ {
		st.AddRow(mt.DType, mt.Row(i))
	}
	return st
}

// AddRow adds one row of a datatype-dt matrix to row-stream stats: each
// element's significand weight to its column's Sig, and the row's
// Hamming weight, non-zero count and adjacent toggles to the totals.
// Sig must hold at least len(row) columns.
//
// The loop accumulates in locals rather than in the fields, and counts
// non-zeros without a branch: (b | -b) has bit 31 set exactly when
// b ≠ 0. A row's first element toggles against itself, adding nothing.
func (st *OperandStats) AddRow(dt matrix.DType, row []uint32) {
	if len(row) == 0 {
		return
	}
	tab := sigTab16(dt)
	hmask := bitops.LowMask(dt.Width())
	sig := st.Sig[:len(row)]
	prev := row[0]
	var hamming, nonZero, toggles int64
	if tab != nil {
		for kk, b := range row {
			sig[kk] += int64(tab[b&0xFFFF])
			hamming += int64(bitops.Popcount32(b & hmask))
			nonZero += int64((b | -b) >> 31)
			toggles += int64(bitops.Toggle32(prev, b))
			prev = b
		}
	} else {
		for kk, b := range row {
			sig[kk] += int64(softfloat.SigPop32(b))
			hamming += int64(bitops.Popcount32(b & hmask))
			nonZero += int64((b | -b) >> 31)
			toggles += int64(bitops.Toggle32(prev, b))
			prev = b
		}
	}
	st.Hamming += hamming
	st.NonZero += nonZero
	st.Toggles += toggles
}

// ScanB streams a matrix row-major once and returns its full
// OperandStats in column-stream orientation (the B operand's stream
// for normal storage): per-row significand sums, adjacent-element
// toggles down columns (computed row-pair-wise for locality), total
// Hamming weight, and the non-zero count. It accumulates as AddRow
// does; the first row toggles against itself.
func ScanB(mt *matrix.Matrix) *OperandStats {
	st := &OperandStats{Sig: make([]int64, mt.Rows)}
	tab := sigTab16(mt.DType)
	hmask := bitops.LowMask(mt.DType.Width())
	var hamming, nonZero, toggles int64
	var prevRow []uint32
	for kk := 0; kk < mt.Rows; kk++ {
		row := mt.Row(kk)
		if prevRow == nil {
			prevRow = row
		}
		prevRow = prevRow[:len(row)]
		var rowSig int64
		if tab != nil {
			for j, b := range row {
				rowSig += int64(tab[b&0xFFFF])
				hamming += int64(bitops.Popcount32(b & hmask))
				nonZero += int64((b | -b) >> 31)
				toggles += int64(bitops.Toggle32(prevRow[j], b))
			}
		} else {
			for j, b := range row {
				rowSig += int64(softfloat.SigPop32(b))
				hamming += int64(bitops.Popcount32(b & hmask))
				nonZero += int64((b | -b) >> 31)
				toggles += int64(bitops.Toggle32(prevRow[j], b))
			}
		}
		st.Sig[kk] = rowSig
		prevRow = row
	}
	st.Hamming, st.NonZero, st.Toggles = hamming, nonZero, toggles
	return st
}

// significandFn returns the per-dtype operand→multiplier-significand
// mapping.
func significandFn(dt matrix.DType) func(uint32) uint32 {
	switch dt {
	case matrix.FP32:
		return softfloat.Significand32
	case matrix.FP16, matrix.FP16T:
		return func(b uint32) uint32 { return softfloat.Significand16(uint16(b)) }
	case matrix.BF16T:
		return func(b uint32) uint32 { return softfloat.SignificandBF16(uint16(b)) }
	case matrix.INT8:
		return func(b uint32) uint32 { return softfloat.I8Magnitude(int8(uint8(b))) }
	default:
		panic("activity: unknown dtype")
	}
}

// samplePositions draws `samples` distinct output positions from the
// n×m index space, deterministically for a given seed, via a sparse
// partial Fisher–Yates shuffle (only the touched prefix of the virtual
// index array is materialized in a map). Sampling without replacement
// matters: duplicate positions would skew the scaled Product/Accum
// toggle estimates by double-counting lanes. When the sample covers the
// whole output the enumeration is exhaustive and seed-independent.
func samplePositions(n, m, samples int, seed uint64) [][2]int {
	total := n * m
	positions := make([][2]int, samples)
	if samples == total {
		idx := 0
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				positions[idx] = [2]int{i, j}
				idx++
			}
		}
		return positions
	}
	src := rng.Derive(seed, "activity-samples")
	swapped := make(map[int]int, samples)
	for s := 0; s < samples; s++ {
		r := s + src.Intn(total-s)
		vr, ok := swapped[r]
		if !ok {
			vr = r
		}
		vs, ok := swapped[s]
		if !ok {
			vs = s
		}
		swapped[r] = vs
		positions[s] = [2]int{vr / m, vr % m}
	}
	return positions
}

// sampleWalk measures product-register and accumulator-register toggle
// trajectories on a deterministic sample of distinct output positions,
// walking the exact per-dtype arithmetic along k, and scales the totals
// to the full output. It also accumulates the mean operand bit
// alignment over the sampled multiplied pairs.
//
// Samples are grouped by output column so each B column is gathered
// into a contiguous buffer once and walked for every sampled row in
// that column; the buffer is reused across groups within a worker. The
// final reduction runs over per-sample slots in a fixed order, so the
// result is deterministic regardless of worker scheduling.
func sampleWalk(p *kernels.Problem, cfg Config, r *Report) {
	n, k, m := p.Dims()
	total := n * m
	samples := cfg.SampleOutputs
	if samples > total {
		samples = total
	}
	positions := samplePositions(n, m, samples, cfg.Seed)

	// Order sample indices by output column so consecutive samples share
	// (or neighbor) their B columns, then walk them two at a time:
	// paired lanes have independent accumulator chains, so interleaving
	// them hides the serial add latency. Per-lane trajectories (and
	// hence results) are identical to one-at-a-time walks.
	// Stable counting sort by column (equivalent to ordering by
	// (column, sample index) — sample indices are appended in order).
	colCount := make([]int, m+1)
	for _, pos := range positions {
		colCount[pos[1]+1]++
	}
	for j := 0; j < m; j++ {
		colCount[j+1] += colCount[j]
	}
	order := make([]int, len(positions))
	for s, pos := range positions {
		order[colCount[pos[1]]] = s
		colCount[pos[1]]++
	}

	width := p.DType.Width()
	results := make([]laneResult, len(positions))

	// gather returns operand column j as a contiguous slice: the stored
	// row itself under transposed storage, otherwise a strided copy into
	// buf.
	gather := func(buf []uint32, j int) []uint32 {
		if p.BTransposed {
			return p.B.Row(j)
		}
		for kk := 0; kk < k; kk++ {
			buf[kk] = p.B.At(kk, j)
		}
		return buf
	}

	walkPair := func(buf0, buf1 []uint32, pi int) {
		i := 2 * pi
		s0 := order[i]
		j0 := positions[s0][1]
		b0 := gather(buf0, j0)
		// An odd last sample walks paired with itself: the lanes are
		// independent, so both results are that sample's.
		s1, b1 := s0, b0
		if i+1 < len(order) {
			s1 = order[i+1]
			if j1 := positions[s1][1]; j1 != j0 {
				b1 = gather(buf1, j1)
			}
		}
		results[s0], results[s1] = walkLane2(p.DType,
			p.A.Row(positions[s0][0]), b0, p.A.Row(positions[s1][0]), b1, width)
	}

	pairs := (len(order) + 1) / 2
	workers := runtime.GOMAXPROCS(0)
	if workers > pairs {
		workers = pairs
	}
	if workers <= 1 {
		buf0 := make([]uint32, k)
		buf1 := make([]uint32, k)
		for pi := 0; pi < pairs; pi++ {
			walkPair(buf0, buf1, pi)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf0 := make([]uint32, k)
				buf1 := make([]uint32, k)
				for {
					pi := int(next.Add(1)) - 1
					if pi >= pairs {
						return
					}
					walkPair(buf0, buf1, pi)
				}
			}()
		}
		wg.Wait()
	}

	var prodTog, accTog int64
	var alignSum float64
	for _, res := range results {
		prodTog += res.prodTog
		accTog += res.accTog
		alignSum += res.alignSum
	}
	if len(positions) > 0 {
		scale := float64(total) / float64(len(positions))
		r.ProductToggles = float64(prodTog) * scale
		r.AccumToggles = float64(accTog) * scale
		r.MeanAlignment = alignSum / float64(int64(len(positions))*int64(k))
	}
}

// laneResult is one sampled output lane's walk outcome.
type laneResult struct {
	prodTog, accTog int64
	alignSum        float64
}

// laneAlign converts a lane's accumulated misalignment popcount into the
// alignment sum Σ_k (1 - pc_k/width). Every per-step alignment is an
// exact multiple of 1/width (width is a power of two), so the integer
// accumulation followed by one division is bit-identical to the
// step-by-step float sum.
func laneAlign(k, width int, pc int64) float64 {
	return float64(int64(k)*int64(width)-pc) / float64(width)
}

// walkLane2 walks two output lanes in one interleaved pass, running
// each lane's exact per-dtype arithmetic along k and counting its
// register toggles plus operand alignment. The lanes' product and
// accumulator chains are independent, so each result is bit-identical
// to a walk of that lane alone, while the interleaving overlaps the
// serial accumulator latency of one lane with the other's. The lanes
// may consume the same or different B columns, or be the same lane.
func walkLane2(dt matrix.DType, aRow0, bCol0, aRow1, bCol1 []uint32, width int) (laneResult, laneResult) {
	k := len(bCol0)
	var prodTog0, accTog0, alignPC0 int64
	var prodTog1, accTog1, alignPC1 int64
	amask := bitops.LowMask(width)
	switch dt {
	case matrix.FP32:
		var acc0, acc1 float32
		var prevProd0, prevAcc0, prevProd1, prevAcc1 uint32
		for kk := 0; kk < k; kk++ {
			bb0, bb1 := bCol0[kk], bCol1[kk]
			a0, a1 := aRow0[kk], aRow1[kk]
			pb0 := math.Float32bits(softfloat.MulF32(softfloat.F32FromBits(a0), softfloat.F32FromBits(bb0)))
			pb1 := math.Float32bits(softfloat.MulF32(softfloat.F32FromBits(a1), softfloat.F32FromBits(bb1)))
			prodTog0 += int64(bitops.Toggle32(prevProd0, pb0))
			prodTog1 += int64(bitops.Toggle32(prevProd1, pb1))
			prevProd0, prevProd1 = pb0, pb1
			acc0 = softfloat.AddF32(acc0, softfloat.F32FromBits(pb0))
			acc1 = softfloat.AddF32(acc1, softfloat.F32FromBits(pb1))
			ab0 := math.Float32bits(acc0)
			ab1 := math.Float32bits(acc1)
			accTog0 += int64(bitops.Toggle32(prevAcc0, ab0))
			accTog1 += int64(bitops.Toggle32(prevAcc1, ab1))
			prevAcc0, prevAcc1 = ab0, ab1
			alignPC0 += int64(bitops.Popcount32((a0 ^ bb0) & amask))
			alignPC1 += int64(bitops.Popcount32((a1 ^ bb1) & amask))
		}
	case matrix.FP16:
		var acc0, acc1 uint16
		var prevProd0, prevAcc0, prevProd1, prevAcc1 uint16
		for kk := 0; kk < k; kk++ {
			bb0, bb1 := bCol0[kk], bCol1[kk]
			a0, a1 := aRow0[kk], aRow1[kk]
			// Mul16 and Add16 under MulF32's NaN rule, written out:
			// the rule would push them past the inliner's budget.
			prod0 := softfloat.F32ToF16(softfloat.MulF32(softfloat.F16ToF32(uint16(a0)), softfloat.F16ToF32(uint16(bb0))))
			prod1 := softfloat.F32ToF16(softfloat.MulF32(softfloat.F16ToF32(uint16(a1)), softfloat.F16ToF32(uint16(bb1))))
			prodTog0 += int64(bitops.Toggle16(prevProd0, prod0))
			prodTog1 += int64(bitops.Toggle16(prevProd1, prod1))
			prevProd0, prevProd1 = prod0, prod1
			acc0 = softfloat.F32ToF16(softfloat.AddF32(softfloat.F16ToF32(acc0), softfloat.F16ToF32(prod0)))
			acc1 = softfloat.F32ToF16(softfloat.AddF32(softfloat.F16ToF32(acc1), softfloat.F16ToF32(prod1)))
			accTog0 += int64(bitops.Toggle16(prevAcc0, acc0))
			accTog1 += int64(bitops.Toggle16(prevAcc1, acc1))
			prevAcc0, prevAcc1 = acc0, acc1
			alignPC0 += int64(bitops.Popcount32((a0 ^ bb0) & amask))
			alignPC1 += int64(bitops.Popcount32((a1 ^ bb1) & amask))
		}
	case matrix.FP16T:
		var acc0, acc1 float32
		var prevProd0, prevAcc0, prevProd1, prevAcc1 uint32
		for kk := 0; kk < k; kk++ {
			bb0, bb1 := bCol0[kk], bCol1[kk]
			a0, a1 := aRow0[kk], aRow1[kk]
			pb0 := math.Float32bits(softfloat.MulF32(softfloat.F16ToF32(uint16(a0)), softfloat.F16ToF32(uint16(bb0))))
			pb1 := math.Float32bits(softfloat.MulF32(softfloat.F16ToF32(uint16(a1)), softfloat.F16ToF32(uint16(bb1))))
			prodTog0 += int64(bitops.Toggle32(prevProd0, pb0))
			prodTog1 += int64(bitops.Toggle32(prevProd1, pb1))
			prevProd0, prevProd1 = pb0, pb1
			acc0 = softfloat.AddF32(acc0, softfloat.F32FromBits(pb0))
			acc1 = softfloat.AddF32(acc1, softfloat.F32FromBits(pb1))
			ab0 := math.Float32bits(acc0)
			ab1 := math.Float32bits(acc1)
			accTog0 += int64(bitops.Toggle32(prevAcc0, ab0))
			accTog1 += int64(bitops.Toggle32(prevAcc1, ab1))
			prevAcc0, prevAcc1 = ab0, ab1
			alignPC0 += int64(bitops.Popcount32((a0 ^ bb0) & amask))
			alignPC1 += int64(bitops.Popcount32((a1 ^ bb1) & amask))
		}
	case matrix.BF16T:
		var acc0, acc1 float32
		var prevProd0, prevAcc0, prevProd1, prevAcc1 uint32
		for kk := 0; kk < k; kk++ {
			bb0, bb1 := bCol0[kk], bCol1[kk]
			a0, a1 := aRow0[kk], aRow1[kk]
			pb0 := math.Float32bits(softfloat.MulF32(softfloat.BF16ToF32(uint16(a0)), softfloat.BF16ToF32(uint16(bb0))))
			pb1 := math.Float32bits(softfloat.MulF32(softfloat.BF16ToF32(uint16(a1)), softfloat.BF16ToF32(uint16(bb1))))
			prodTog0 += int64(bitops.Toggle32(prevProd0, pb0))
			prodTog1 += int64(bitops.Toggle32(prevProd1, pb1))
			prevProd0, prevProd1 = pb0, pb1
			acc0 = softfloat.AddF32(acc0, softfloat.F32FromBits(pb0))
			acc1 = softfloat.AddF32(acc1, softfloat.F32FromBits(pb1))
			ab0 := math.Float32bits(acc0)
			ab1 := math.Float32bits(acc1)
			accTog0 += int64(bitops.Toggle32(prevAcc0, ab0))
			accTog1 += int64(bitops.Toggle32(prevAcc1, ab1))
			prevAcc0, prevAcc1 = ab0, ab1
			alignPC0 += int64(bitops.Popcount32((a0 ^ bb0) & amask))
			alignPC1 += int64(bitops.Popcount32((a1 ^ bb1) & amask))
		}
	case matrix.INT8:
		var acc0, acc1 int32
		var prevProd0, prevAcc0, prevProd1, prevAcc1 uint32
		for kk := 0; kk < k; kk++ {
			bb0, bb1 := bCol0[kk], bCol1[kk]
			a0, a1 := aRow0[kk], aRow1[kk]
			pb0 := uint32(int32(int8(uint8(a0))) * int32(int8(uint8(bb0))))
			pb1 := uint32(int32(int8(uint8(a1))) * int32(int8(uint8(bb1))))
			prodTog0 += int64(bitops.Toggle32(prevProd0, pb0))
			prodTog1 += int64(bitops.Toggle32(prevProd1, pb1))
			prevProd0, prevProd1 = pb0, pb1
			acc0 += int32(pb0)
			acc1 += int32(pb1)
			ab0 := uint32(acc0)
			ab1 := uint32(acc1)
			accTog0 += int64(bitops.Toggle32(prevAcc0, ab0))
			accTog1 += int64(bitops.Toggle32(prevAcc1, ab1))
			prevAcc0, prevAcc1 = ab0, ab1
			alignPC0 += int64(bitops.Popcount32((a0 ^ bb0) & amask))
			alignPC1 += int64(bitops.Popcount32((a1 ^ bb1) & amask))
		}
	default:
		panic("activity: unknown dtype")
	}
	return laneResult{prodTog: prodTog0, accTog: accTog0, alignSum: laneAlign(k, width, alignPC0)},
		laneResult{prodTog: prodTog1, accTog: accTog1, alignSum: laneAlign(k, width, alignPC1)}
}
