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
	"math/bits"
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
	reuseA := int64(ceilDiv(m, p.Tile.BlockN))
	reuseB := int64(ceilDiv(n, p.Tile.BlockM))
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
// along rows, total Hamming weight, and the non-zero count. It equals
// AddRow over every row, but adds Sig over blocks of sigBlock rows, so
// each column's sum is loaded and stored once per block.
func ScanA(mt *matrix.Matrix) *OperandStats {
	st := &OperandStats{Sig: make([]int64, mt.Cols)}
	tab := sigTab16(mt.DType)
	hmask := bitops.LowMask(mt.DType.Width())
	cols := mt.Cols
	for i := 0; i < mt.Rows; i += sigBlock {
		block := mt.Bits[i*cols : min(i+sigBlock, mt.Rows)*cols]
		for r := 0; r < len(block); r += cols {
			st.addCounts(block[r:r+cols], hmask)
		}
		if len(block) == sigBlock*cols {
			addSigBlock(st.Sig, tab, block[:cols], block[cols:2*cols], block[2*cols:3*cols], block[3*cols:])
			continue
		}
		for r := 0; r < len(block); r += cols {
			addSig(st.Sig, tab, block[r:r+cols])
		}
	}
	return st
}

// sigBlock is the number of rows ScanA adds to Sig at once
// (addSigBlock).
const sigBlock = 4

// AddRow adds one row of a datatype-dt matrix to row-stream stats: each
// element's significand weight to its column's Sig, and the row's
// Hamming weight, non-zero count and adjacent toggles to the totals.
// Sig must hold at least len(row) columns.
func (st *OperandStats) AddRow(dt matrix.DType, row []uint32) {
	st.addCounts(row, bitops.LowMask(dt.Width()))
	addSig(st.Sig, sigTab16(dt), row)
}

// addCounts adds a row's Hamming weight (of the bits under hmask),
// non-zero count and adjacent toggles to the totals. A row's first
// element toggles against itself, adding nothing.
func (st *OperandStats) addCounts(row []uint32, hmask uint32) {
	if len(row) == 0 {
		return
	}
	hamming, nonZero, toggles := counts(row[1:], row[:len(row)-1], hmask)
	b := row[0]
	st.Hamming += hamming + int64(bits.OnesCount32(b&hmask))
	st.NonZero += nonZero + int64((b|-b)>>31)
	st.Toggles += toggles
}

// counts returns the Hamming weight (of the bits under hmask) and the
// non-zero count of cur, and the toggles between each element of cur
// and the same element of prev. It counts two elements with each
// popcount (popPair). Non-zeros count without a branch: (b | -b) has
// bit 31 set exactly when b ≠ 0.
func counts(cur, prev []uint32, hmask uint32) (hamming, nonZero, toggles int64) {
	prev = prev[:len(cur)]
	j := 0
	for ; j+1 < len(cur); j += 2 {
		b0, b1 := cur[j], cur[j+1]
		hamming += popPair(b0&hmask, b1&hmask)
		toggles += popPair(prev[j]^b0, prev[j+1]^b1)
		nonZero += int64((b0|-b0)>>31 + (b1|-b1)>>31)
	}
	if j < len(cur) {
		b := cur[j]
		hamming += int64(bits.OnesCount32(b & hmask))
		toggles += int64(bits.OnesCount32(prev[j] ^ b))
		nonZero += int64((b | -b) >> 31)
	}
	return hamming, nonZero, toggles
}

// popPair returns OnesCount32(x) + OnesCount32(y) with one 64-bit
// popcount, exact for any words: x and y fill disjoint halves of
// x | y<<32. At GOAMD64=v1 each popcount tests for the instruction and
// keeps a call fallback, around which the loop's live values spill,
// so halving the popcounts also halves those spills.
func popPair(x, y uint32) int64 { return int64(bits.OnesCount64(uint64(x) | uint64(y)<<32)) }

// addSig adds each element's significand weight to its column's sum:
// tab's entry (sigTab16), or for FP32 (nil tab) the popcount of the
// significand.
func addSig(sig []int64, tab *[1 << 16]uint8, row []uint32) {
	sig = sig[:len(row)]
	if tab != nil {
		for j, b := range row {
			sig[j] += int64(tab[b&0xFFFF])
		}
		return
	}
	for j, b := range row {
		sig[j] += int64(softfloat.SigPop32(b))
	}
}

// addSigBlock is addSig over four rows of equal length, each column's
// sum updated once. FP32 weighs two rows' significands with each
// popcount (popPair).
func addSigBlock(sig []int64, tab *[1 << 16]uint8, r0, r1, r2, r3 []uint32) {
	sig = sig[:len(r0)]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	if tab != nil {
		for j, b := range r0 {
			sig[j] += int64(tab[b&0xFFFF]) + int64(tab[r1[j]&0xFFFF]) +
				int64(tab[r2[j]&0xFFFF]) + int64(tab[r3[j]&0xFFFF])
		}
		return
	}
	for j, b := range r0 {
		sig[j] += popPair(softfloat.Significand32(b), softfloat.Significand32(r1[j])) +
			popPair(softfloat.Significand32(r2[j]), softfloat.Significand32(r3[j]))
	}
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
	var prevRow []uint32
	for kk := 0; kk < mt.Rows; kk++ {
		row := mt.Row(kk)
		if prevRow == nil {
			prevRow = row
		}
		var rowSig int64
		if tab != nil {
			for _, b := range row {
				rowSig += int64(tab[b&0xFFFF])
			}
		} else {
			for _, b := range row {
				rowSig += int64(softfloat.SigPop32(b))
			}
		}
		st.Sig[kk] = rowSig
		h, nz, tg := counts(row, prevRow, hmask)
		st.Hamming += h
		st.NonZero += nz
		st.Toggles += tg
		prevRow = row
	}
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

// walkPlan is the sampled walk's schedule for one (n, m, samples,
// seed): samplePositions' output positions ordered by output column
// and cut into lane pairs. Consecutive samples then share or neighbor
// their B columns, and a pair's lanes have independent accumulator
// chains, so walking them interleaved hides the serial add latency.
type walkPlan struct {
	key   planKey
	pairs []lanePair
}

// planKey identifies a walk plan.
type planKey struct {
	n, m, samples int
	seed          uint64
}

// lanePair is one walkLane2 call: the output positions (row, column)
// of two samples, or of an odd last sample paired with itself. The
// plan stays in memory, so it keeps them in 32 bits.
type lanePair struct{ i0, j0, i1, j1 int32 }

// lastPlan is a one-entry plan cache. A campaign measures every GEMM
// at one size with core.RunChain's fixed seed, so every walk after
// the first hits it; a caller mixing sizes (the server) recomputes the
// plan on a miss, as every walk once did. Plans are immutable, and a
// hit returns what a miss would build, so callers cannot observe one
// another through it.
var lastPlan atomic.Pointer[walkPlan]

// planWalk returns the walk plan of samples (at most n·m) outputs of an
// n×m output under seed.
func planWalk(n, m, samples int, seed uint64) *walkPlan {
	samples = min(samples, n*m)
	key := planKey{n, m, samples, seed}
	if pl := lastPlan.Load(); pl != nil && pl.key == key {
		return pl
	}
	positions := samplePositions(n, m, samples, seed)
	// Stable counting sort by column: the order of (column, sample
	// index).
	colStart := make([]int, m+1)
	for _, pos := range positions {
		colStart[pos[1]+1]++
	}
	for j := 0; j < m; j++ {
		colStart[j+1] += colStart[j]
	}
	order := make([][2]int, samples)
	for _, pos := range positions {
		order[colStart[pos[1]]] = pos
		colStart[pos[1]]++
	}
	pl := &walkPlan{key: key, pairs: make([]lanePair, (samples+1)/2)}
	for pi := range pl.pairs {
		p0 := order[2*pi]
		p1 := p0
		if 2*pi+1 < samples {
			p1 = order[2*pi+1]
		}
		pl.pairs[pi] = lanePair{int32(p0[0]), int32(p0[1]), int32(p1[0]), int32(p1[1])}
	}
	lastPlan.Store(pl)
	return pl
}

// sampleWalk measures product-register and accumulator-register toggle
// trajectories on a deterministic sample of distinct output positions
// (planWalk), walking the exact per-dtype arithmetic along k, and
// scales the totals to the full output. It also accumulates the mean
// operand bit alignment over the sampled multiplied pairs.
//
// Workers take lane pairs in turn and sum integer counts; integer sums
// do not depend on the order, so the result is deterministic
// regardless of worker scheduling. An odd last sample walks paired
// with itself, so its pair counts it twice, and halving is exact.
func sampleWalk(p *kernels.Problem, cfg Config, r *Report) {
	n, k, m := p.Dims()
	plan := planWalk(n, m, cfg.SampleOutputs, cfg.Seed)
	samples := plan.key.samples
	if samples == 0 {
		return
	}
	width := p.DType.Width()
	var next, prodTog, accTog, alignPC atomic.Int64
	walk := func() {
		// Operand column j is the stored row itself under transposed
		// storage, otherwise a strided copy into a buffer.
		var buf []uint32
		if !p.BTransposed {
			buf = make([]uint32, 2*k)
		}
		column := func(half int, j int32) []uint32 {
			if p.BTransposed {
				return p.B.Row(int(j))
			}
			col := buf[half*k : (half+1)*k]
			for kk := range col {
				col[kk] = p.B.Bits[kk*m+int(j)]
			}
			return col
		}
		var pt, at, al int64
		for {
			pi := int(next.Add(1)) - 1
			if pi >= len(plan.pairs) {
				break
			}
			pr := plan.pairs[pi]
			b0 := column(0, pr.j0)
			b1 := b0
			if pr.j1 != pr.j0 {
				b1 = column(1, pr.j1)
			}
			dp, da, dl := walkLane2(p.DType, p.A.Row(int(pr.i0)), b0, p.A.Row(int(pr.i1)), b1, width)
			if pr.i0 == pr.i1 && pr.j0 == pr.j1 {
				dp, da, dl = dp/2, da/2, dl/2
			}
			pt, at, al = pt+dp, at+da, al+dl
		}
		prodTog.Add(pt)
		accTog.Add(at)
		alignPC.Add(al)
	}
	workers := min(runtime.GOMAXPROCS(0), len(plan.pairs))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			walk()
		}()
	}
	walk()
	wg.Wait()

	scale := float64(n*m) / float64(samples)
	r.ProductToggles = float64(prodTog.Load()) * scale
	r.AccumToggles = float64(accTog.Load()) * scale
	// Each lane's alignment sum Σ_k (1 − pc_k/width) is a multiple of
	// 1/width (width is a power of two), and so is every partial sum
	// of them, all below 2⁵³/width: summed as floats in any order they
	// are exact, and equal the integer total's one division.
	steps := int64(samples) * int64(k)
	r.MeanAlignment = float64(steps*int64(width)-alignPC.Load()) / float64(width) / float64(steps)
}

// walkLane2 walks two output lanes in one interleaved pass, running
// each lane's exact per-dtype arithmetic along k, and returns the two
// lanes' summed product-register toggles, accumulator-register toggles
// and operand misalignment popcount Σ_k popcount((a⊕b) & lane mask).
// The lanes' product and accumulator chains are independent, so each
// lane's trajectory is bit-identical to a walk of that lane alone,
// while the interleaving overlaps the serial accumulator latency of
// one lane with the other's; only the sums are read, so each count
// takes one popcount for both lanes (popPair). The lanes may consume
// the same or different B columns, or be the same lane.
func walkLane2(dt matrix.DType, aRow0, bCol0, aRow1, bCol1 []uint32, width int) (prodTog, accTog, alignPC int64) {
	k := len(bCol0)
	aRow0, aRow1, bCol1 = aRow0[:k], aRow1[:k], bCol1[:k]
	amask := bitops.LowMask(width)
	switch dt {
	case matrix.FP32:
		var acc0, acc1 float32
		var prevProd0, prevAcc0, prevProd1, prevAcc1 uint32
		for kk, bb0 := range bCol0 {
			bb1, a0, a1 := bCol1[kk], aRow0[kk], aRow1[kk]
			pb0 := math.Float32bits(softfloat.MulF32(softfloat.F32FromBits(a0), softfloat.F32FromBits(bb0)))
			pb1 := math.Float32bits(softfloat.MulF32(softfloat.F32FromBits(a1), softfloat.F32FromBits(bb1)))
			acc0 = softfloat.AddF32(acc0, softfloat.F32FromBits(pb0))
			acc1 = softfloat.AddF32(acc1, softfloat.F32FromBits(pb1))
			ab0, ab1 := math.Float32bits(acc0), math.Float32bits(acc1)
			prodTog += popPair(prevProd0^pb0, prevProd1^pb1)
			accTog += popPair(prevAcc0^ab0, prevAcc1^ab1)
			alignPC += popPair((a0^bb0)&amask, (a1^bb1)&amask)
			prevProd0, prevProd1, prevAcc0, prevAcc1 = pb0, pb1, ab0, ab1
		}
	case matrix.FP16:
		// Binary16 multiply and accumulate: each step is the float32
		// operation under MulF32's NaN rule, rounded once to binary16
		// (exact-then-round is correct rounding, see softfloat), with
		// the conversion's inlinable normal path tried first.
		var acc0, acc1 uint16
		var prevProd0, prevAcc0, prevProd1, prevAcc1 uint16
		for kk, bb0 := range bCol0 {
			bb1, a0, a1 := bCol1[kk], aRow0[kk], aRow1[kk]
			f0 := softfloat.MulF32(softfloat.F16ToF32(uint16(a0)), softfloat.F16ToF32(uint16(bb0)))
			f1 := softfloat.MulF32(softfloat.F16ToF32(uint16(a1)), softfloat.F16ToF32(uint16(bb1)))
			prod0, ok0 := softfloat.F32ToF16Normal(f0)
			if !ok0 {
				prod0 = softfloat.F32ToF16(f0)
			}
			prod1, ok1 := softfloat.F32ToF16Normal(f1)
			if !ok1 {
				prod1 = softfloat.F32ToF16(f1)
			}
			s0 := softfloat.AddF32(softfloat.F16ToF32(acc0), softfloat.F16ToF32(prod0))
			s1 := softfloat.AddF32(softfloat.F16ToF32(acc1), softfloat.F16ToF32(prod1))
			if acc0, ok0 = softfloat.F32ToF16Normal(s0); !ok0 {
				acc0 = softfloat.F32ToF16(s0)
			}
			if acc1, ok1 = softfloat.F32ToF16Normal(s1); !ok1 {
				acc1 = softfloat.F32ToF16(s1)
			}
			prodTog += popPair(uint32(prevProd0^prod0), uint32(prevProd1^prod1))
			accTog += popPair(uint32(prevAcc0^acc0), uint32(prevAcc1^acc1))
			alignPC += popPair((a0^bb0)&amask, (a1^bb1)&amask)
			prevProd0, prevProd1, prevAcc0, prevAcc1 = prod0, prod1, acc0, acc1
		}
	case matrix.FP16T:
		var acc0, acc1 float32
		var prevProd0, prevAcc0, prevProd1, prevAcc1 uint32
		for kk, bb0 := range bCol0 {
			bb1, a0, a1 := bCol1[kk], aRow0[kk], aRow1[kk]
			pb0 := math.Float32bits(softfloat.MulF32(softfloat.F16ToF32(uint16(a0)), softfloat.F16ToF32(uint16(bb0))))
			pb1 := math.Float32bits(softfloat.MulF32(softfloat.F16ToF32(uint16(a1)), softfloat.F16ToF32(uint16(bb1))))
			acc0 = softfloat.AddF32(acc0, softfloat.F32FromBits(pb0))
			acc1 = softfloat.AddF32(acc1, softfloat.F32FromBits(pb1))
			ab0, ab1 := math.Float32bits(acc0), math.Float32bits(acc1)
			prodTog += popPair(prevProd0^pb0, prevProd1^pb1)
			accTog += popPair(prevAcc0^ab0, prevAcc1^ab1)
			alignPC += popPair((a0^bb0)&amask, (a1^bb1)&amask)
			prevProd0, prevProd1, prevAcc0, prevAcc1 = pb0, pb1, ab0, ab1
		}
	case matrix.BF16T:
		var acc0, acc1 float32
		var prevProd0, prevAcc0, prevProd1, prevAcc1 uint32
		for kk, bb0 := range bCol0 {
			bb1, a0, a1 := bCol1[kk], aRow0[kk], aRow1[kk]
			pb0 := math.Float32bits(softfloat.MulF32(softfloat.BF16ToF32(uint16(a0)), softfloat.BF16ToF32(uint16(bb0))))
			pb1 := math.Float32bits(softfloat.MulF32(softfloat.BF16ToF32(uint16(a1)), softfloat.BF16ToF32(uint16(bb1))))
			acc0 = softfloat.AddF32(acc0, softfloat.F32FromBits(pb0))
			acc1 = softfloat.AddF32(acc1, softfloat.F32FromBits(pb1))
			ab0, ab1 := math.Float32bits(acc0), math.Float32bits(acc1)
			prodTog += popPair(prevProd0^pb0, prevProd1^pb1)
			accTog += popPair(prevAcc0^ab0, prevAcc1^ab1)
			alignPC += popPair((a0^bb0)&amask, (a1^bb1)&amask)
			prevProd0, prevProd1, prevAcc0, prevAcc1 = pb0, pb1, ab0, ab1
		}
	case matrix.INT8:
		var acc0, acc1 int32
		var prevProd0, prevAcc0, prevProd1, prevAcc1 uint32
		for kk, bb0 := range bCol0 {
			bb1, a0, a1 := bCol1[kk], aRow0[kk], aRow1[kk]
			pb0 := uint32(int32(int8(uint8(a0))) * int32(int8(uint8(bb0))))
			pb1 := uint32(int32(int8(uint8(a1))) * int32(int8(uint8(bb1))))
			acc0 += int32(pb0)
			acc1 += int32(pb1)
			ab0, ab1 := uint32(acc0), uint32(acc1)
			prodTog += popPair(prevProd0^pb0, prevProd1^pb1)
			accTog += popPair(prevAcc0^ab0, prevAcc1^ab1)
			alignPC += popPair((a0^bb0)&amask, (a1^bb1)&amask)
			prevProd0, prevProd1, prevAcc0, prevAcc1 = pb0, pb1, ab0, ab1
		}
	default:
		panic("activity: unknown dtype")
	}
	return prodTog, accTog, alignPC
}
