package activity

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/bitops"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/rng"
	"repro/internal/softfloat"
)

// refSampleWalk is sampleWalk as it stood before its plan: it walks
// each sample alone (refWalkLane2 paired with itself) in sample order
// and sums the per-sample results in that order, the alignment as
// floats.
func refSampleWalk(p *kernels.Problem, cfg Config) (prodTog, accTog, meanAlign float64) {
	n, k, m := p.Dims()
	samples := min(cfg.SampleOutputs, n*m)
	positions := samplePositions(n, m, samples, cfg.Seed)
	width := p.DType.Width()
	col := make([]uint32, k)
	var pt, at int64
	var alignSum float64
	for _, pos := range positions {
		for kk := range col {
			col[kk] = p.BAt(kk, pos[1])
		}
		aRow := p.A.Row(pos[0])
		res, _ := refWalkLane2(p.DType, aRow, col, aRow, col, width)
		pt += res.prodTog
		at += res.accTog
		alignSum += res.alignSum
	}
	if len(positions) == 0 {
		return 0, 0, 0
	}
	scale := float64(n*m) / float64(len(positions))
	return float64(pt) * scale, float64(at) * scale, alignSum / float64(int64(len(positions))*int64(k))
}

// walkSpecials are per-datatype words the fuzzed operands plant: NaNs
// of both signs, infinities, the smallest and largest subnormals, the
// largest finite value and −0 (INT8: its extremes, −1, 1 and 0).
var walkSpecials = map[matrix.DType][]uint32{
	matrix.FP32:  {0x7fc00001, 0xffa00002, 0x7f800000, 0xff800000, 0x00000001, 0x007fffff, 0x7f7fffff, 0x80000000},
	matrix.FP16:  {0x7e01, 0xfd02, 0x7c00, 0xfc00, 0x0001, 0x03ff, 0x7bff, 0x8000},
	matrix.FP16T: {0x7e01, 0xfd02, 0x7c00, 0xfc00, 0x0001, 0x03ff, 0x7bff, 0x8000},
	matrix.BF16T: {0x7fc1, 0xffa2, 0x7f80, 0xff80, 0x0001, 0x007f, 0x7f7f, 0x8000},
	matrix.INT8:  {0x80, 0x7f, 0xff, 0x01, 0x00},
}

// FuzzWalkMatchesLanes holds the planned pair walk to the per-lane walk
// (refSampleWalk) bit for bit: any ExtendedDTypes entry, an n×k A and
// a k×m B of 1–16 rows and columns and k of 1–64, raw words within the
// lane width with a share of walkSpecials planted in them, B in either
// storage, and any sample count up to n·m, odd ones included. The
// walk runs twice, the second time from the cached plan.
func FuzzWalkMatchesLanes(f *testing.F) {
	for dt := range matrix.ExtendedDTypes {
		f.Add(uint8(dt), uint8(5), uint8(37), uint8(7), uint16(9), dt%2 == 0, uint8(40), uint64(dt))
	}
	f.Fuzz(func(t *testing.T, dtIdx, n, k, m uint8, samples uint16, transposed bool, special uint8, seed uint64) {
		dt := matrix.ExtendedDTypes[int(dtIdx)%len(matrix.ExtendedDTypes)]
		rows, depth, cols := 1+int(n)%16, 1+int(k)%64, 1+int(m)%16
		src := rng.New(seed)
		mask := bitops.LowMask(dt.Width())
		specials := walkSpecials[dt]
		fill := func(mt *matrix.Matrix) {
			for i := range mt.Bits {
				mt.Bits[i] = src.Uint32() & mask
				if src.Intn(256) < int(special) {
					mt.Bits[i] = specials[src.Intn(len(specials))]
				}
			}
		}
		a := matrix.New(dt, rows, depth)
		fill(a)
		p := kernels.NewProblem(dt, a, matrix.New(dt, depth, cols))
		if transposed {
			p = kernels.NewTransposedProblem(dt, a, matrix.New(dt, cols, depth))
		}
		fill(p.B)
		cfg := Config{SampleOutputs: 1 + int(samples)%(rows*cols), Seed: seed}
		ctx := fmt.Sprintf("%v %dx%dx%d transposed %v samples %d seed %#x",
			dt, rows, depth, cols, transposed, cfg.SampleOutputs, seed)
		wantProd, wantAcc, wantAlign := refSampleWalk(p, cfg)
		for pass := 0; pass < 2; pass++ {
			var r Report
			sampleWalk(p, cfg, &r)
			if math.Float64bits(r.ProductToggles) != math.Float64bits(wantProd) ||
				math.Float64bits(r.AccumToggles) != math.Float64bits(wantAcc) ||
				math.Float64bits(r.MeanAlignment) != math.Float64bits(wantAlign) {
				t.Fatalf("%s pass %d: walk (%v, %v, %v), per-lane (%v, %v, %v)", ctx, pass,
					r.ProductToggles, r.AccumToggles, r.MeanAlignment, wantProd, wantAcc, wantAlign)
			}
		}
	})
}

// TestWalkPlanCacheConcurrent walks problems of two shapes from several
// goroutines at once, so the one-entry plan cache changes hands under
// the walks, and holds every walk to the per-lane reference.
func TestWalkPlanCacheConcurrent(t *testing.T) {
	probs := []*kernels.Problem{
		gaussianProblem(matrix.FP16, 24, 16, 20, 1),
		gaussianProblem(matrix.INT8, 12, 9, 30, 2),
	}
	cfg := Config{SampleOutputs: 37, Seed: 5}
	type walk struct{ prod, acc, align float64 }
	want := make([]walk, len(probs))
	for i, p := range probs {
		want[i].prod, want[i].acc, want[i].align = refSampleWalk(p, cfg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				i := (g + it) % len(probs)
				var r Report
				sampleWalk(probs[i], cfg, &r)
				if got := (walk{r.ProductToggles, r.AccumToggles, r.MeanAlignment}); got != want[i] {
					t.Errorf("goroutine %d walk %d of problem %d: %+v, want %+v", g, it, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkWalk times the sampled walk alone, as a campaign measure
// runs it: a 512² Gaussian problem with B in transposed storage, 256
// samples and core.RunChain's seed.
func BenchmarkWalk(b *testing.B) {
	for _, dt := range matrix.ExtendedDTypes {
		b.Run(dt.String(), func(b *testing.B) {
			p := gaussianProblem(dt, 512, 512, 512, 1)
			p.BTransposed = true
			cfg := Config{SampleOutputs: 256, Seed: 0xAC71}
			var r Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sampleWalk(p, cfg, &r)
			}
		})
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

// refWalkLane2 is the per-lane walk the planned pair walk replaced,
// kept verbatim as its reference. It walks two output lanes in one interleaved pass, running
// each lane's exact per-dtype arithmetic along k and counting its
// register toggles plus operand alignment. The lanes' product and
// accumulator chains are independent, so each result is bit-identical
// to a walk of that lane alone, while the interleaving overlaps the
// serial accumulator latency of one lane with the other's. The lanes
// may consume the same or different B columns, or be the same lane.
func refWalkLane2(dt matrix.DType, aRow0, bCol0, aRow1, bCol1 []uint32, width int) (laneResult, laneResult) {
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
			// Binary16 multiply and accumulate: the float32
			// operation under MulF32's NaN rule, rounded once to
			// binary16.
			prod0 := softfloat.F32ToF16(softfloat.MulF32(softfloat.F16ToF32(uint16(a0)), softfloat.F16ToF32(uint16(bb0))))
			prod1 := softfloat.F32ToF16(softfloat.MulF32(softfloat.F16ToF32(uint16(a1)), softfloat.F16ToF32(uint16(bb1))))
			prodTog0 += int64(bits.OnesCount16(prevProd0 ^ prod0))
			prodTog1 += int64(bits.OnesCount16(prevProd1 ^ prod1))
			prevProd0, prevProd1 = prod0, prod1
			acc0 = softfloat.F32ToF16(softfloat.AddF32(softfloat.F16ToF32(acc0), softfloat.F16ToF32(prod0)))
			acc1 = softfloat.F32ToF16(softfloat.AddF32(softfloat.F16ToF32(acc1), softfloat.F16ToF32(prod1)))
			accTog0 += int64(bits.OnesCount16(prevAcc0 ^ acc0))
			accTog1 += int64(bits.OnesCount16(prevAcc1 ^ acc1))
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
