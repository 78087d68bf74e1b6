package activity

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bitops"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/rng"
	"repro/internal/softfloat"
)

func gaussianProblem(dt matrix.DType, n, k, m int, seed uint64) *kernels.Problem {
	a := matrix.New(dt, n, k)
	b := matrix.New(dt, k, m)
	std := matrix.DefaultStd(dt)
	matrix.FillGaussian(a, rng.Derive(seed, "A"), 0, std)
	matrix.FillGaussian(b, rng.Derive(seed, "B"), 0, std)
	return kernels.NewProblem(dt, a, b)
}

// bruteForce computes operand toggles and multiplier partial-product
// units by the O(NMK) definition, the oracle for the separable fast
// path.
func bruteForce(p *kernels.Problem) (operandToggles, ppUnits int64) {
	n, k, m := p.Dims()
	sig := significandFn(p.DType)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			for kk := 0; kk+1 < k; kk++ {
				operandToggles += int64(bitops.Toggle32(p.A.At(i, kk), p.A.At(i, kk+1)))
				operandToggles += int64(bitops.Toggle32(p.B.At(kk, j), p.B.At(kk+1, j)))
			}
			for kk := 0; kk < k; kk++ {
				ha := int64(bitops.Popcount32(sig(p.A.At(i, kk))))
				hb := int64(bitops.Popcount32(sig(p.B.At(kk, j))))
				ppUnits += ha * hb
			}
		}
	}
	return operandToggles, ppUnits
}

func TestSeparableTermsMatchBruteForce(t *testing.T) {
	for _, dt := range matrix.DTypes {
		p := gaussianProblem(dt, 7, 9, 5, uint64(dt)+1)
		r, err := Analyze(p, Config{SampleOutputs: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantTog, wantPP := bruteForce(p)
		if r.OperandToggles != wantTog {
			t.Errorf("%v: operand toggles = %d, brute force = %d", dt, r.OperandToggles, wantTog)
		}
		if r.MultPPUnits != wantPP {
			t.Errorf("%v: PP units = %d, brute force = %d", dt, r.MultPPUnits, wantPP)
		}
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	bad := kernels.NewProblem(matrix.FP32,
		matrix.New(matrix.FP32, 4, 8), matrix.New(matrix.FP32, 9, 4))
	if _, err := Analyze(bad, Config{}); err == nil {
		t.Error("expected shape error")
	}
}

func TestZeroMatricesHaveZeroActivity(t *testing.T) {
	for _, dt := range matrix.DTypes {
		a := matrix.New(dt, 8, 16)
		b := matrix.New(dt, 16, 8)
		r, err := Analyze(kernels.NewProblem(dt, a, b), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if r.OperandToggles != 0 || r.MultPPUnits != 0 || r.StreamToggles != 0 {
			t.Errorf("%v: zero matrices should have zero exact activity: %+v", dt, r)
		}
		if r.ProductToggles != 0 || r.AccumToggles != 0 {
			t.Errorf("%v: zero matrices should have zero sampled activity", dt)
		}
		if r.NonZeroFrac != 0 {
			t.Errorf("%v: zero matrices have no non-zero MACs", dt)
		}
		if r.MeanAlignment != 1 {
			t.Errorf("%v: all-zero operands are fully aligned, got %v", dt, r.MeanAlignment)
		}
	}
}

func TestConstantMatricesHaveNoToggles(t *testing.T) {
	// A constant operand stream never flips the operand latches — the
	// starting point of the paper's bit-similarity experiments.
	for _, dt := range matrix.DTypes {
		a := matrix.New(dt, 8, 16)
		b := matrix.New(dt, 16, 8)
		matrix.FillConstant(a, 3)
		matrix.FillConstant(b, 5)
		r, err := Analyze(kernels.NewProblem(dt, a, b), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if r.OperandToggles != 0 {
			t.Errorf("%v: constant matrices should not toggle operands", dt)
		}
		if r.MultPPUnits == 0 {
			t.Errorf("%v: constant non-zero matrices still drive the multiplier", dt)
		}
		if r.NonZeroFrac != 1 {
			t.Errorf("%v: NonZeroFrac = %v, want 1", dt, r.NonZeroFrac)
		}
	}
}

func TestRandomVsConstantActivityOrdering(t *testing.T) {
	// T4 mechanism: random data toggles more than constant data.
	for _, dt := range matrix.DTypes {
		random := gaussianProblem(dt, 16, 32, 16, 42)
		ca := matrix.New(dt, 16, 32)
		cb := matrix.New(dt, 32, 16)
		matrix.FillConstant(ca, 100)
		matrix.FillConstant(cb, 50)
		constant := kernels.NewProblem(dt, ca, cb)

		rr, err := Analyze(random, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := Analyze(constant, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rr.OperandToggles <= rc.OperandToggles {
			t.Errorf("%v: random should out-toggle constant", dt)
		}
		if rr.ProductToggles <= rc.ProductToggles {
			t.Errorf("%v: random products should out-toggle constant products", dt)
		}
	}
}

func TestSortingReducesOperandToggles(t *testing.T) {
	// T8 mechanism.
	dt := matrix.FP16
	base := gaussianProblem(dt, 32, 32, 32, 7)
	sortedA := base.A.Clone()
	sortedB := base.B.Clone()
	matrix.PartialSort(sortedA, matrix.IntoRows, 1)
	matrix.PartialSort(sortedB, matrix.IntoRows, 1)
	sorted := kernels.NewProblem(dt, sortedA, sortedB)

	rBase, err := Analyze(base, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rSorted, err := Analyze(sorted, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rSorted.OperandToggles >= rBase.OperandToggles {
		t.Errorf("sorted operand toggles %d should be below random %d",
			rSorted.OperandToggles, rBase.OperandToggles)
	}
}

func TestSparsityReducesPPUnits(t *testing.T) {
	// T12 mechanism: zero operands gate the multiplier array.
	dt := matrix.FP32
	base := gaussianProblem(dt, 16, 16, 16, 9)
	sparseA := base.A.Clone()
	sparseB := base.B.Clone()
	matrix.Sparsify(sparseA, rng.New(1), 0.5)
	matrix.Sparsify(sparseB, rng.New(2), 0.5)
	sparse := kernels.NewProblem(dt, sparseA, sparseB)

	rBase, _ := Analyze(base, Config{Seed: 3})
	rSparse, err := Analyze(sparse, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rSparse.MultPPUnits >= rBase.MultPPUnits {
		t.Error("sparsity should reduce multiplier activity")
	}
	if rSparse.NonZeroFrac >= rBase.NonZeroFrac {
		t.Error("sparsity should reduce the non-zero MAC fraction")
	}
	// (1-s)² scaling: expect roughly a quarter of the PP units.
	ratio := float64(rSparse.MultPPUnits) / float64(rBase.MultPPUnits)
	if ratio < 0.15 || ratio > 0.4 {
		t.Errorf("PP ratio under 50%%+50%% sparsity = %v, want ≈0.25", ratio)
	}
}

func TestMACsAndPerMAC(t *testing.T) {
	p := gaussianProblem(matrix.FP32, 8, 16, 4, 11)
	r, err := Analyze(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MACs != 8*16*4 {
		t.Errorf("MACs = %d", r.MACs)
	}
	pm := r.PerMAC()
	if pm.OperandToggles <= 0 || pm.MultPPUnits <= 0 {
		t.Error("per-MAC rates should be positive for random input")
	}
	var empty Report
	if empty.PerMAC() != (PerMAC{}) {
		t.Error("zero-MAC report should normalize to zero")
	}
}

func TestSampleAllPositionsWhenSmall(t *testing.T) {
	// With SampleOutputs >= N·M the walk is exhaustive and exact.
	p := gaussianProblem(matrix.INT8, 4, 8, 4, 13)
	r1, err := Analyze(p, Config{SampleOutputs: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Analyze(p, Config{SampleOutputs: 10000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive sampling is seed-independent.
	if r1.ProductToggles != r2.ProductToggles || r1.AccumToggles != r2.AccumToggles {
		t.Error("exhaustive sampling should not depend on seed")
	}
}

func TestSamplingDeterministic(t *testing.T) {
	p := gaussianProblem(matrix.FP16T, 32, 16, 32, 17)
	r1, _ := Analyze(p, Config{SampleOutputs: 64, Seed: 5})
	r2, _ := Analyze(p, Config{SampleOutputs: 64, Seed: 5})
	if r1.ProductToggles != r2.ProductToggles || r1.AccumToggles != r2.AccumToggles ||
		r1.MeanAlignment != r2.MeanAlignment {
		t.Error("same seed must give identical sampled terms")
	}
}

func TestSampledTermsApproximateExhaustive(t *testing.T) {
	p := gaussianProblem(matrix.FP32, 24, 32, 24, 19)
	exact, err := Analyze(p, Config{SampleOutputs: 24 * 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Analyze(p, Config{SampleOutputs: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	relProd := math.Abs(approx.ProductToggles-exact.ProductToggles) / exact.ProductToggles
	relAcc := math.Abs(approx.AccumToggles-exact.AccumToggles) / exact.AccumToggles
	if relProd > 0.1 || relAcc > 0.1 {
		t.Errorf("sampled terms off by prod %.3f / acc %.3f (want <0.1)", relProd, relAcc)
	}
}

func TestMeanAlignmentIdenticalOperands(t *testing.T) {
	// A and B holding the same constant align perfectly.
	dt := matrix.FP16
	a := matrix.New(dt, 8, 8)
	b := matrix.New(dt, 8, 8)
	matrix.FillConstant(a, 7)
	matrix.FillConstant(b, 7)
	r, err := Analyze(kernels.NewProblem(dt, a, b), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanAlignment != 1 {
		t.Errorf("identical constant operands: alignment = %v, want 1", r.MeanAlignment)
	}
}

func TestMeanAlignmentOppositeOperands(t *testing.T) {
	dt := matrix.FP16
	a := matrix.New(dt, 8, 8)
	b := matrix.New(dt, 8, 8)
	matrix.FillConstantBits(a, 0xAAAA)
	matrix.FillConstantBits(b, 0x5555)
	r, err := Analyze(kernels.NewProblem(dt, a, b), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanAlignment != 0 {
		t.Errorf("opposite operands: alignment = %v, want 0", r.MeanAlignment)
	}
}

func TestStreamTogglesScaleWithReuse(t *testing.T) {
	p := gaussianProblem(matrix.FP32, 16, 16, 16, 23)
	cfg := Config{SampleOutputs: 1}
	p.Tile = kernels.TileConfig{BlockM: 4, BlockN: 4, BlockK: 4}
	rs, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Tile = kernels.TileConfig{BlockM: 16, BlockN: 16, BlockK: 4}
	rl, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.StreamToggles <= rl.StreamToggles {
		t.Error("smaller tiles re-stream operands more and must toggle buses more")
	}
	// Reuse factor 16/4=4 on both operands: exactly 4x.
	if rs.StreamToggles != 4*rl.StreamToggles {
		t.Errorf("stream toggles %d vs %d: want exact 4x", rs.StreamToggles, rl.StreamToggles)
	}
}

func TestHammingWeightsReported(t *testing.T) {
	p := gaussianProblem(matrix.FP32, 8, 8, 8, 29)
	r, err := Analyze(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanHammingA <= 0 || r.MeanHammingA > 32 {
		t.Errorf("MeanHammingA = %v out of range", r.MeanHammingA)
	}
	if math.Abs(r.MeanHammingA-p.A.MeanHammingWeight()) > 1e-12 {
		t.Error("MeanHammingA should match matrix stat")
	}
}

// TestTransposedStorageBitIdentical holds Analyze of a Problem that
// carries B as its stored transpose (kernels.NewTransposedProblem) to
// Analyze of the same Problem with the transpose materialized, on every
// report field: every datatype, shapes from 1×1×1 to 65×130×66, and raw
// bit patterns in B (NaN, infinity and subnormal words included). Every
// output is sampled, so the walk covers each lane.
func TestTransposedStorageBitIdentical(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 33, 9}, {65, 130, 66}}
	for _, dt := range matrix.ExtendedDTypes {
		for si, sh := range shapes {
			n, k, m := sh[0], sh[1], sh[2]
			seed := uint64(si*100) + uint64(dt) + 7
			a := matrix.New(dt, n, k)
			g := matrix.New(dt, m, k) // stores Bᵀ: row j is operand column j
			matrix.FillGaussian(a, rng.Derive(seed, "A"), 0, matrix.DefaultStd(dt))
			src, mask := rng.Derive(seed, "Graw"), bitops.LowMask(dt.Width())
			for i := range g.Bits {
				g.Bits[i] = src.Uint32() & mask
			}
			pt := kernels.NewTransposedProblem(dt, a, g)
			pm := kernels.NewProblem(dt, a, g.Transpose())
			if gn, gk, gm := pt.Dims(); gn != n || gk != k || gm != m {
				t.Fatalf("%v: transposed Dims = (%d,%d,%d), want (%d,%d,%d)", dt, gn, gk, gm, n, k, m)
			}
			cfg := Config{SampleOutputs: n * m, Seed: seed}
			got, err := Analyze(pt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Analyze(pm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %dx%dx%d: transposed storage %+v, materialized %+v", dt, n, k, m, *got, *want)
			}
		}
	}
}

// walkWant restates one sampled lane's per-step arithmetic under the
// softfloat.MulF32/AddF32 NaN rule: the product and accumulator
// register toggles and the alignment sum Σ(1 − popcount(a⊕b)/width).
func walkWant(dt matrix.DType, aRow, bCol []uint32) (prodTog, accTog int64, align float64) {
	width := dt.Width()
	mask := bitops.LowMask(width)
	var acc32 float32
	var acc16 uint16
	var accI int32
	var prevProd, prevAcc uint32
	for kk, a := range aRow {
		b := bCol[kk]
		var pb, ab uint32
		switch dt {
		case matrix.FP32:
			prod := softfloat.MulF32(softfloat.F32FromBits(a), softfloat.F32FromBits(b))
			acc32 = softfloat.AddF32(acc32, prod)
			pb, ab = math.Float32bits(prod), math.Float32bits(acc32)
		case matrix.FP16:
			prod := softfloat.F32ToF16(softfloat.MulF32(softfloat.F16ToF32(uint16(a)), softfloat.F16ToF32(uint16(b))))
			acc16 = softfloat.F32ToF16(softfloat.AddF32(softfloat.F16ToF32(acc16), softfloat.F16ToF32(prod)))
			pb, ab = uint32(prod), uint32(acc16)
		case matrix.FP16T, matrix.BF16T:
			dec := softfloat.F16ToF32
			if dt == matrix.BF16T {
				dec = softfloat.BF16ToF32
			}
			prod := softfloat.MulF32(dec(uint16(a)), dec(uint16(b)))
			acc32 = softfloat.AddF32(acc32, prod)
			pb, ab = math.Float32bits(prod), math.Float32bits(acc32)
		case matrix.INT8:
			prod := int32(int8(a)) * int32(int8(b))
			accI += prod
			pb, ab = uint32(prod), uint32(accI)
		}
		prodTog += int64(bitops.Toggle32(prevProd, pb))
		accTog += int64(bitops.Toggle32(prevAcc, ab))
		prevProd, prevAcc = pb, ab
		align += 1 - float64(bitops.Popcount32((a^b)&mask))/float64(width)
	}
	return prodTog, accTog, align
}

// TestSampledWalkMatchesWalkWant holds the sampled walk to walkWant on
// every extended datatype, over raw bit patterns with planted NaN
// pairs, so a NaN meets a NaN in the multiply and in the accumulate. At
// sample counts 1 and 3 every output is sampled, so the report's
// totals are plain sums over the lanes, and the last sample walks
// paired with itself; the 1×3 output pairs lanes on different B
// columns.
func TestSampledWalkMatchesWalkWant(t *testing.T) {
	const k = 11
	nans := map[matrix.DType][2]uint32{
		matrix.FP32:  {0x7fc00001, 0xffa00002},
		matrix.FP16:  {0x7e01, 0xfd02},
		matrix.FP16T: {0x7e01, 0xfd02},
		matrix.BF16T: {0x7fc1, 0xffa2},
	}
	for _, dt := range matrix.ExtendedDTypes {
		for _, sh := range [][2]int{{1, 1}, {3, 1}, {1, 3}} {
			n, m := sh[0], sh[1]
			t.Run(fmt.Sprintf("%v/%dx%d", dt, n, m), func(t *testing.T) {
				a := matrix.New(dt, n, k)
				b := matrix.New(dt, k, m)
				mask := bitops.LowMask(dt.Width())
				src := rng.Derive(uint64(dt)+uint64(n*m), "walk")
				for _, mt := range []*matrix.Matrix{a, b} {
					for i := range mt.Bits {
						mt.Bits[i] = src.Uint32() & mask
					}
				}
				if nan, ok := nans[dt]; ok {
					// Step 3 multiplies two NaNs; step 7 adds a NaN
					// product to the NaN accumulator.
					for i := 0; i < n; i++ {
						a.Set(i, 3, nan[0])
						a.Set(i, 7, nan[1])
					}
					for j := 0; j < m; j++ {
						b.Set(3, j, nan[1])
						b.Set(7, j, nan[0])
					}
				}
				var wantProd, wantAcc int64
				var wantAlign float64
				col := make([]uint32, k)
				for i := 0; i < n; i++ {
					for j := 0; j < m; j++ {
						for kk := range col {
							col[kk] = b.At(kk, j)
						}
						p, acc, al := walkWant(dt, a.Row(i), col)
						wantProd += p
						wantAcc += acc
						wantAlign += al
					}
				}
				r, err := Analyze(kernels.NewProblem(dt, a, b), Config{SampleOutputs: n * m})
				if err != nil {
					t.Fatal(err)
				}
				if r.ProductToggles != float64(wantProd) {
					t.Errorf("product toggles = %v, want %d", r.ProductToggles, wantProd)
				}
				if r.AccumToggles != float64(wantAcc) {
					t.Errorf("accum toggles = %v, want %d", r.AccumToggles, wantAcc)
				}
				if want := wantAlign / float64(n*m*k); r.MeanAlignment != want {
					t.Errorf("mean alignment = %v, want %v", r.MeanAlignment, want)
				}
			})
		}
	}
}

func BenchmarkAnalyze1024FP32(b *testing.B) {
	p := gaussianProblem(matrix.FP32, 1024, 1024, 1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(p, Config{SampleOutputs: 256, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
