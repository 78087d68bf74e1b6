// Package matrix implements the typed, bit-level input matrices the
// experiments operate on. Elements are stored as raw bit patterns (in
// the low bits of a uint32 lane) so that every transform the paper
// applies — value sorting, sparsification, random bit flips, LSB/MSB
// randomization and zeroing — acts on exactly the representation that
// travels through the simulated GPU datapath.
//
// Following the paper's methodology (§III), floating-point inputs are
// generated as FP32 values and converted to each datatype with
// round-to-nearest; INT8 inputs round and saturate.
package matrix

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/softfloat"
)

// DType identifies one of the paper's four datatype setups.
type DType int

const (
	// FP32 is IEEE binary32 on the SIMT FMA pipeline.
	FP32 DType = iota
	// FP16 is IEEE binary16 on the SIMT pipeline with FP16 accumulation.
	FP16
	// FP16T is IEEE binary16 on tensor cores with FP32 accumulation.
	FP16T
	// INT8 is two's-complement int8 with INT32 accumulation.
	INT8
	// BF16T is bfloat16 on tensor cores with FP32 accumulation — an
	// extension beyond the paper's four setups (same storage width and
	// tensor-core rate as FP16T, but an 8-bit significand).
	BF16T
)

// DTypes lists the datatype setups in the order the paper reports them.
var DTypes = []DType{FP32, FP16, FP16T, INT8}

// ExtendedDTypes adds the non-paper extension datatypes.
var ExtendedDTypes = []DType{FP32, FP16, FP16T, INT8, BF16T}

// String returns the paper's name for the datatype setup.
func (d DType) String() string {
	switch d {
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	case FP16T:
		return "FP16-T"
	case INT8:
		return "INT8"
	case BF16T:
		return "BF16-T"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// ParseDType parses a datatype name as the paper spells it ("FP16-T")
// or without the dash ("FP16T"), case-insensitively.
func ParseDType(s string) (DType, bool) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "FP32":
		return FP32, true
	case "FP16":
		return FP16, true
	case "FP16-T", "FP16T":
		return FP16T, true
	case "BF16-T", "BF16T", "BF16":
		return BF16T, true
	case "INT8":
		return INT8, true
	default:
		return 0, false
	}
}

// Width returns the storage width of one element in bits.
func (d DType) Width() int {
	switch d {
	case FP32:
		return 32
	case FP16, FP16T, BF16T:
		return 16
	case INT8:
		return 8
	default:
		panic("matrix: unknown dtype")
	}
}

// IsFloat reports whether the datatype is a floating-point format.
func (d DType) IsFloat() bool { return d != INT8 }

// Encode converts a generated value to the datatype's bit pattern using
// round-to-nearest, mirroring the paper's numeric conversion from FP32.
func (d DType) Encode(v float64) uint32 {
	f := float32(v)
	switch d {
	case FP32:
		return math.Float32bits(f)
	case FP16, FP16T:
		return uint32(softfloat.F32ToF16(f))
	case BF16T:
		return uint32(softfloat.F32ToBF16(f))
	case INT8:
		return uint32(uint8(softfloat.F32ToI8(f)))
	default:
		panic("matrix: unknown dtype")
	}
}

// Decode converts a bit pattern back to a numeric value.
func (d DType) Decode(bits uint32) float64 {
	switch d {
	case FP32:
		return float64(math.Float32frombits(bits))
	case FP16, FP16T:
		return float64(softfloat.F16ToF32(uint16(bits)))
	case BF16T:
		return float64(softfloat.BF16ToF32(uint16(bits)))
	case INT8:
		return float64(int8(uint8(bits)))
	default:
		panic("matrix: unknown dtype")
	}
}

// Matrix is a dense row-major matrix of raw element bit patterns.
type Matrix struct {
	DType DType
	Rows  int
	Cols  int
	// Bits holds the element bit patterns row-major, each in the low
	// DType.Width() bits of its lane.
	Bits []uint32
}

// New allocates a zeroed matrix. It panics on non-positive dimensions.
func New(dtype DType, rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{
		DType: dtype,
		Rows:  rows,
		Cols:  cols,
		Bits:  make([]uint32, rows*cols),
	}
}

// At returns the raw bit pattern at (i, j).
func (m *Matrix) At(i, j int) uint32 { return m.Bits[i*m.Cols+j] }

// Set stores a raw bit pattern at (i, j).
func (m *Matrix) Set(i, j int, bits uint32) { m.Bits[i*m.Cols+j] = bits }

// Value returns the decoded numeric value at (i, j).
func (m *Matrix) Value(i, j int) float64 { return m.DType.Decode(m.At(i, j)) }

// SetValue encodes and stores a numeric value at (i, j).
func (m *Matrix) SetValue(i, j int, v float64) { m.Set(i, j, m.DType.Encode(v)) }

// Row returns the i-th row as a shared slice (no copy).
func (m *Matrix) Row(i int) []uint32 { return m.Bits[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy. The copy's storage is not zero-filled
// before the words are copied in.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{DType: m.DType, Rows: m.Rows, Cols: m.Cols, Bits: slices.Clone(m.Bits)}
}

// Transpose returns a new matrix that is the transpose of m. The paper's
// default configuration transposes B so both operands stream the same
// pattern along the reduction dimension.
// The chain takes transposed storage instead
// (kernels.NewTransposedProblem); activity's
// TestTransposedStorageBitIdentical builds the materialized transpose
// with it.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.DType, m.Cols, m.Rows)
	transposeBits(out.Bits, m.Bits, m.Rows, m.Cols)
	return out
}

// transposeBits writes the transpose of src, a rows×cols row-major
// block, to dst as cols×rows. The copy is tiled so both the reads and
// the strided writes stay within cache lines per tile; tiles are small
// because power-of-two strides map a tile's destination lines to few
// cache sets.
func transposeBits(dst, src []uint32, rows, cols int) {
	const tile = 8
	for ii := 0; ii < rows; ii += tile {
		ihi := min(ii+tile, rows)
		for jj := 0; jj < cols; jj += tile {
			jhi := min(jj+tile, cols)
			for i := ii; i < ihi; i++ {
				row := src[i*cols : (i+1)*cols]
				for j := jj; j < jhi; j++ {
					dst[j*rows+i] = row[j]
				}
			}
		}
	}
}

// Equal reports whether two matrices have identical dtype, shape, and
// bit content.
// The byte-identity tests compare matrices with it:
// FuzzGenerateMatchesBaseFill, TestPrepSort, TestPartialSortConcurrent
// and the transform tests.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.DType != o.DType || m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Bits {
		if o.Bits[i] != v {
			return false
		}
	}
	return true
}

// Values returns all decoded values row-major.
func (m *Matrix) Values() []float64 {
	out := make([]float64, len(m.Bits))
	for i, b := range m.Bits {
		out[i] = m.DType.Decode(b)
	}
	return out
}

// NonZeroFraction returns the fraction of elements whose bit pattern is
// non-zero. Note that for floating point, -0 counts as non-zero bits;
// the transforms in this package always write +0 when sparsifying.
// Only tests call it: TestSparsify and the patterns DSL tests.
func (m *Matrix) NonZeroFraction() float64 {
	nz := 0
	for _, b := range m.Bits {
		if b != 0 {
			nz++
		}
	}
	return float64(nz) / float64(len(m.Bits))
}
