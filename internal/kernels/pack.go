package kernels

import (
	"math"

	"repro/internal/matrix"
	"repro/internal/softfloat"
)

// Operand packing: the engine decodes each operand once per problem
// into contiguous panels — A row-major, B column-major — so the O(N³)
// inner loop is a pure dot product over dense slices instead of a
// strided At(kk, j) walk with a per-element branchy decode. Decoding
// uses the softfloat lookup tables, and because decode is exact for
// every datatype, packed arithmetic is bit-identical to decoding inside
// the loop.

// f32Decoder returns the exact element decoder into float32 for the
// float datatypes.
func f32Decoder(dt matrix.DType) func(uint32) float32 {
	switch dt {
	case matrix.FP32:
		return math.Float32frombits
	case matrix.FP16, matrix.FP16T:
		return func(b uint32) float32 { return softfloat.F16ToF32(uint16(b)) }
	case matrix.BF16T:
		return func(b uint32) float32 { return softfloat.BF16ToF32(uint16(b)) }
	default:
		panic("kernels: no float32 decoder for dtype")
	}
}

// i8Decoder sign-extends an INT8 element into its int32 accumulator
// type (DP4A operand semantics).
func i8Decoder(b uint32) int32 { return int32(int8(uint8(b))) }

// packRows decodes a row-major matrix into a row-major panel.
func packRows[T accum](mt *matrix.Matrix, dec func(uint32) T) []T {
	out := make([]T, len(mt.Bits))
	for i, b := range mt.Bits {
		out[i] = dec(b)
	}
	return out
}

// packOpCols packs the logical B operand into M contiguous column
// panels: out[j*K+kk] = dec(B[kk, j]). With transposed storage the
// operand's columns are B's rows, so packing degenerates to a straight
// row-major decode — one of the wins of BTransposed.
func packOpCols[T accum](p *Problem, dec func(uint32) T) []T {
	if p.BTransposed {
		return packRows(p.B, dec)
	}
	rows, cols := p.B.Rows, p.B.Cols
	out := make([]T, rows*cols)
	for kk := 0; kk < rows; kk++ {
		for j, b := range p.B.Row(kk) {
			out[j*rows+kk] = dec(b)
		}
	}
	return out
}
