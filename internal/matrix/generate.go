package matrix

import (
	"math"

	"repro/internal/rng"
	"repro/internal/softfloat"
)

// The generators below implement the paper's input constructions
// (§III–§IV). All floating-point experiments share the same generated
// FP32 value stream; Encode applies the per-datatype round-to-nearest
// conversion.

// FillGaussian fills the matrix with independent Gaussian variates of
// the given mean and standard deviation, the paper's default input
// (mean 0, σ = 210 for FP, σ = 25 for INT8). Generation is the
// dominant cost of a figure campaign, so the per-datatype conversion
// is hoisted out of the element loop.
func FillGaussian(m *Matrix, src *rng.Source, mean, std float64) {
	switch m.DType {
	case FP32:
		for i := range m.Bits {
			m.Bits[i] = math.Float32bits(float32(src.Gaussian(mean, std)))
		}
	case FP16, FP16T:
		for i := range m.Bits {
			m.Bits[i] = uint32(softfloat.F32ToF16(float32(src.Gaussian(mean, std))))
		}
	case BF16T:
		for i := range m.Bits {
			m.Bits[i] = uint32(softfloat.F32ToBF16(float32(src.Gaussian(mean, std))))
		}
	case INT8:
		for i := range m.Bits {
			m.Bits[i] = uint32(uint8(softfloat.F32ToI8(float32(src.Gaussian(mean, std)))))
		}
	default:
		for i := range m.Bits {
			m.Bits[i] = m.DType.Encode(src.Gaussian(mean, std))
		}
	}
}

// EncodeGaussianStream writes mean + std·raw[j] into dst in datatype
// dt with its round-to-nearest encode. Given a row's standard Gaussian
// variates it writes that row of FillGaussian(m, src, mean, std)
// bit for bit (Gaussian(mean, std) is exactly mean + std·NormFloat64()).
func EncodeGaussianStream(dst []uint32, raw []float64, dt DType, mean, std float64) {
	raw = raw[:len(dst)]
	switch dt {
	case FP32:
		for j, r := range raw {
			dst[j] = math.Float32bits(float32(mean + std*r))
		}
	case FP16, FP16T:
		for j, r := range raw {
			f := float32(mean + std*r)
			h, ok := softfloat.F32ToF16Normal(f)
			if !ok {
				h = softfloat.F32ToF16(f)
			}
			dst[j] = uint32(h)
		}
	case BF16T:
		for j, r := range raw {
			dst[j] = uint32(softfloat.F32ToBF16(float32(mean + std*r)))
		}
	case INT8:
		for j, r := range raw {
			dst[j] = uint32(uint8(softfloat.F32ToI8(float32(mean + std*r))))
		}
	default:
		for j, r := range raw {
			dst[j] = dt.Encode(mean + std*r)
		}
	}
}

// EncodeValues writes raw values into dst with datatype dt's encode.
// Given the values a row of FillFromSet selects, it writes that row.
func EncodeValues(dst []uint32, raw []float64, dt DType) {
	raw = raw[:len(dst)]
	for j, r := range raw {
		dst[j] = dt.Encode(r)
	}
}

// FillConstant fills every element with the same value. The bit
// similarity experiments (§IV-B) start from a matrix holding one random
// value everywhere.
func FillConstant(m *Matrix, v float64) {
	bits := m.DType.Encode(v)
	for i := range m.Bits {
		m.Bits[i] = bits
	}
}

// FillConstantBits fills every element with the same raw bit pattern.
// Only tests call it: TestZeroLSBs, TestMeanHammingWeight and
// activity's TestMeanAlignmentOppositeOperands.
func FillConstantBits(m *Matrix, bits uint32) {
	for i := range m.Bits {
		m.Bits[i] = bits
	}
}

// FillFromSet fills the matrix with values selected uniformly, with
// replacement, from the given value set (§IV-A "inputs from a set").
func FillFromSet(m *Matrix, src *rng.Source, set []float64) {
	if len(set) == 0 {
		panic("matrix: FillFromSet with empty set")
	}
	encoded := make([]uint32, len(set))
	for i, v := range set {
		encoded[i] = m.DType.Encode(v)
	}
	for i := range m.Bits {
		m.Bits[i] = encoded[src.Intn(len(encoded))]
	}
}

// GaussianSet draws n Gaussian variates to serve as the value set for
// FillFromSet, mirroring the paper's construction (a set of Gaussian
// random variables with mean 0 and σ = 210 FP / 25 INT8).
func GaussianSet(src *rng.Source, n int, mean, std float64) []float64 {
	set := make([]float64, n)
	for i := range set {
		set[i] = src.Gaussian(mean, std)
	}
	return set
}

// FillUniform fills the matrix with uniform variates in [lo, hi).
func FillUniform(m *Matrix, src *rng.Source, lo, hi float64) {
	for i := range m.Bits {
		m.Bits[i] = m.DType.Encode(lo + (hi-lo)*src.Float64())
	}
}

// DefaultStd returns the paper's default Gaussian standard deviation for
// the datatype: 210 for floating point, 25 for INT8 (§III, Fig. 2).
func DefaultStd(d DType) float64 {
	if d == INT8 {
		return 25
	}
	return 210
}
