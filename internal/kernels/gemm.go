package kernels

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/softfloat"
)

// Output is a dense row-major result matrix in float64, the common
// denominator for verifying every datatype's accumulation behaviour
// against a reference.
type Output struct {
	Rows, Cols int
	Vals       []float64
}

// At returns the output element at (i, j).
// Only tests call it: TestOutputAt and TestFP16MatchesScalarSoftfloat.
func (o *Output) At(i, j int) float64 { return o.Vals[i*o.Cols+j] }

// Run executes the GEMM functionally with the exact arithmetic of the
// datatype setup:
//
//	FP32   — float32 multiply, float32 accumulate
//	FP16   — binary16 multiply, binary16 accumulate (SIMT HFMA)
//	FP16-T — binary16 multiply exact in float32, float32 accumulate
//	         (tensor-core MMA semantics), binary16 final store
//	BF16-T — bfloat16 multiply exact in float32, float32 accumulate
//	INT8   — int8 multiply, int32 accumulate (DP4A semantics)
//
// The engine packs both operands into contiguous decoded panels once
// per problem (A row-major, B column-major) and computes cache-blocked
// row ranges with a fused alpha/beta epilogue. Results are bit-identical
// to decoding inside the loop because element decode is exact and each
// output element's reduction order is fixed (ascending k), matching the
// per-lane order of the simulated kernel; row blocks write disjoint
// output ranges, so parallel execution is deterministic too.
// No figure, serving or fleet path calls Run: the chain reads operand
// bits, not products. The golden suite (TestRunBitIdenticalToGolden,
// FuzzRunMatchesGolden) and
// TestSortReductionDimReducesPowerAndPreservesOutputs run it, and
// BenchmarkGEMM times it.
func Run(p *Problem) (*Output, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, _, m := p.Dims()
	out := &Output{Rows: n, Cols: m, Vals: make([]float64, n*m)}

	switch p.DType {
	case matrix.FP32:
		runF32Acc(p, out, epilogueFP32)
	case matrix.FP16T:
		runF32Acc(p, out, epilogueFP16T)
	case matrix.BF16T:
		runF32Acc(p, out, epilogueBF16T)
	case matrix.FP16:
		runFP16(p, out)
	case matrix.INT8:
		runINT8(p, out)
	default:
		return nil, fmt.Errorf("kernels: unsupported dtype %v", p.DType)
	}
	return out, nil
}

func cVal(p *Problem, i, j int) float64 {
	if p.C == nil {
		return 0
	}
	return p.C.Value(i, j)
}

// Fused epilogues: D = αacc + βC in the datatype's exact store
// semantics, applied as each accumulator retires.

func epilogueFP32(p *Problem, i, j int, acc float32) float64 {
	d := float32(p.Alpha)*acc + float32(p.Beta)*float32(cVal(p, i, j))
	return float64(d)
}

func epilogueFP16T(p *Problem, i, j int, acc float32) float64 {
	d := float32(p.Alpha)*acc + float32(p.Beta)*float32(cVal(p, i, j))
	// Tensor-core epilogues store the FP32 accumulator back to the
	// FP16 output with round-to-nearest.
	return float64(softfloat.F16ToF32(softfloat.F32ToF16(d)))
}

func epilogueBF16T(p *Problem, i, j int, acc float32) float64 {
	d := float32(p.Alpha)*acc + float32(p.Beta)*float32(cVal(p, i, j))
	return float64(softfloat.BF16ToF32(softfloat.F32ToBF16(d)))
}

// runF32Acc executes the datatypes whose multiply is exact in float32
// and whose accumulator is a float32 register (FP32, FP16-T, BF16-T):
// the 4-wide lane kernel over the packed panels with a per-dtype store.
func runF32Acc(p *Problem, out *Output, epi func(p *Problem, i, j int, acc float32) float64) {
	n, k, m := p.Dims()
	dec := f32Decoder(p.DType)
	aPan := packRows(p.A, dec)
	bPan := packOpCols(p, dec)
	parallelRowBlocks(n, rowBlock, func(lo, hi int) {
		gemm4(aPan, bPan, k, m, lo, hi, func(i, j int, acc float32) {
			out.Vals[i*m+j] = epi(p, i, j, acc)
		})
	})
}

// runFP16 executes the plain SIMT FP16 path: binary16 multiply and
// binary16 accumulate per step. The packed panels hold the exact FP32
// images of the binary16 operands, so round16(a·b) is one F32ToF16 of
// the float32 product — identical bits to Mul16 on the raw patterns —
// and the accumulate re-rounds through the binary16 register exactly
// like FMA16.
func runFP16(p *Problem, out *Output) {
	n, k, m := p.Dims()
	dec := f32Decoder(matrix.FP16)
	aPan := packRows(p.A, dec)
	bPan := packOpCols(p, dec)
	alpha := softfloat.F32ToF16(float32(p.Alpha))
	beta := softfloat.F32ToF16(float32(p.Beta))
	parallelRowBlocks(n, rowBlock, func(lo, hi int) {
		gemmFP16(aPan, bPan, k, m, lo, hi, func(i, j int, acc uint16) {
			c := softfloat.F32ToF16(float32(cVal(p, i, j)))
			d := softfloat.Add16(softfloat.Mul16(alpha, acc), softfloat.Mul16(beta, c))
			out.Vals[i*m+j] = float64(softfloat.F16ToF32(d))
		})
	})
}

// runINT8 executes the INT8 path with INT32 accumulation (DP4A
// semantics) over sign-extended panels.
func runINT8(p *Problem, out *Output) {
	n, k, m := p.Dims()
	aPan := packRows(p.A, i8Decoder)
	bPan := packOpCols(p, i8Decoder)
	parallelRowBlocks(n, rowBlock, func(lo, hi int) {
		gemm4(aPan, bPan, k, m, lo, hi, func(i, j int, acc int32) {
			out.Vals[i*m+j] = p.Alpha*float64(acc) + p.Beta*cVal(p, i, j)
		})
	})
}

// Reference computes the GEMM in float64 with no intermediate rounding,
// the oracle the datatype kernels are verified against. It shares the
// packed-panel layout and block scheduling with the datatype engine.
// Only tests call it: TestFP32MatchesReference and TestINT8Exact hold
// Run to it, and FuzzRunMatchesGolden holds it to a float64 loop.
func Reference(p *Problem) *Output {
	n, k, m := p.Dims()
	aPan := packRows(p.A, p.A.DType.Decode)
	bPan := packOpCols(p, p.B.DType.Decode)
	out := &Output{Rows: n, Cols: m, Vals: make([]float64, n*m)}
	parallelRowBlocks(n, rowBlock, func(lo, hi int) {
		gemm4(aPan, bPan, k, m, lo, hi, func(i, j int, acc float64) {
			out.Vals[i*m+j] = p.Alpha*acc + p.Beta*cVal(p, i, j)
		})
	})
	return out
}
