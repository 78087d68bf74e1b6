// Package softfloat implements the datatype machinery the reproduction
// needs at the bit level: IEEE 754 binary16 (half precision) with
// round-to-nearest-even conversions, FP32 bit-field helpers, and
// saturating INT8 conversion.
//
// The paper's experiments generate all floating-point inputs as FP32
// values and convert them to each datatype with round-to-nearest; its
// GEMM kernels then operate natively in each type (FP16 accumulate for
// plain FP16, FP32 accumulate for tensor-core FP16, INT32 accumulate for
// INT8). Go has no float16, so binary16 is implemented here from
// scratch.
//
// Correctness note: binary32 carries 24 significand bits, which is at
// least 2·11+2, so binary16 add/sub/mul/div computed exactly in binary32
// and then rounded to binary16 by one F32ToF16 is correctly rounded (no
// double-rounding hazard). The sampled walk's FP16 arm relies on this
// (TestF16ProductRoundsOnce).
package softfloat

import "math"

// Binary16 field layout constants.
const (
	F16SignMask uint16 = 0x8000
	F16ExpMask  uint16 = 0x7C00
	F16MantMask uint16 = 0x03FF
	F16ExpBias         = 15
	F16MantBits        = 10

	f16Inf  uint16 = 0x7C00
	f16QNaN uint16 = 0x7E00
)

// FP32-side range boundaries of the binary16 conversion. f16MaxF32
// and f16SubnormF32 bound the FP32 magnitudes whose conversion lands
// in the binary16 normal range.
const (
	f32Infty       = uint32(255) << 23
	f16MaxF32      = uint32(127+16) << 23
	f16SubnormF32  = uint32(113) << 23
	f16DenormMagic = uint32(((127 - 15) + (23 - 10) + 1)) << 23
)

// F32ToF16 converts an FP32 value to binary16 with round-to-nearest-even
// semantics, handling subnormals, overflow to infinity, and NaN
// quieting. This mirrors the numeric conversion the paper applies when
// deriving FP16 inputs from generated FP32 values.
//
// The implementation is the branch-light magic-number formulation: the
// normal path (F32ToF16Normal) implements RNE with one integer add
// (+0xFFF plus the odd-mantissa bit), and the subnormal path aligns
// the half mantissa at the bottom of a float via one FP32 addition,
// whose hardware rounding is exactly the RNE the conversion needs.
// f32ToF16Compute is the field-by-field reference it is verified
// against.
func F32ToF16(f float32) uint16 {
	if h, ok := F32ToF16Normal(f); ok {
		return h
	}
	return f32ToF16Tail(math.Float32bits(f))
}

// F32ToF16Normal is F32ToF16 on the FP32 magnitudes that convert to
// the binary16 normal range (up to the values that round to infinity
// at its top): ok reports whether f is one, and h is then
// F32ToF16(f). It fits the compiler's inlining budget, which
// F32ToF16 with its range tails does not, so a hot loop converts in
// registers and calls F32ToF16 only when ok is false.
func F32ToF16Normal(f float32) (h uint16, ok bool) {
	b := math.Float32bits(f)
	ab := b &^ F32SignMask
	// One unsigned compare selects the normal range [subnormal, f16Max);
	// magnitudes below it wrap past the window.
	if ab-f16SubnormF32 >= f16MaxF32-f16SubnormF32 {
		return 0, false
	}
	mantOdd := (ab >> 13) & 1
	ab -= uint32(112) << 23 // re-bias exponent 127 → 15
	ab += 0xFFF + mantOdd   // round to nearest, ties to even
	return uint16(b>>16)&F16SignMask | uint16(ab>>13), true
}

func f32ToF16Tail(b uint32) uint16 {
	sign := uint16(b>>16) & F16SignMask
	b &^= F32SignMask
	if b >= f16MaxF32 {
		// Inf, NaN, or a finite value rounding past the binary16 range.
		if b > f32Infty {
			return sign | f16QNaN
		}
		return sign | f16Inf
	}
	// Result is a binary16 subnormal or zero: the FP32 add rounds the
	// value at exactly the half-subnormal precision (RNE in hardware),
	// and the integer subtract re-biases the aligned mantissa.
	v := math.Float32frombits(b) + math.Float32frombits(f16DenormMagic)
	return sign | uint16(math.Float32bits(v)-f16DenormMagic)
}

// f32ToF16Compute is the field-by-field RNE conversion, kept as the
// reference implementation the fast path is tested against.
func f32ToF16Compute(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & F16SignMask
	exp := int32(b>>23) & 0xFF
	mant := b & 0x7FFFFF

	if exp == 0xFF {
		if mant != 0 {
			return sign | f16QNaN
		}
		return sign | f16Inf
	}

	e := exp - 127 + F16ExpBias
	switch {
	case e >= 0x1F:
		// Overflows binary16 range: round to infinity.
		return sign | f16Inf
	case e <= 0:
		// Subnormal or zero result.
		if e < -10 {
			// Below half of the smallest subnormal: rounds to zero.
			return sign
		}
		m := mant | 0x800000 // restore hidden bit
		shift := uint32(14 - e)
		rounded := m >> shift
		rem := m & (uint32(1)<<shift - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && rounded&1 == 1) {
			rounded++
		}
		// A carry out of the subnormal mantissa lands exactly on the
		// smallest normal encoding, so plain addition is correct.
		return sign + uint16(rounded)
	default:
		rounded := mant >> 13
		rem := mant & 0x1FFF
		if rem > 0x1000 || (rem == 0x1000 && rounded&1 == 1) {
			rounded++
		}
		// Addition (not OR) lets a mantissa carry bump the exponent; a
		// carry from the top exponent value yields the infinity
		// encoding, which is the correct RNE overflow behaviour.
		return sign + uint16(e)<<F16MantBits + uint16(rounded)
	}
}

// F16ToF32 converts a binary16 value to FP32 exactly (every binary16
// value is representable in binary32). It is a 65,536-entry table
// lookup; the table is built from f16ToF32Compute at init.
func F16ToF32(h uint16) float32 { return f16DecodeLUT[h] }

// f16ToF32Compute is the field-by-field decode used to build the lookup
// table and to verify it.
func f16ToF32Compute(h uint16) float32 {
	sign := uint32(h&F16SignMask) << 16
	exp := uint32(h&F16ExpMask) >> F16MantBits
	mant := uint32(h & F16MantMask)

	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: value is mant·2⁻²⁴, which is exact in binary32
		// (mant has at most 10 bits and 2⁻²⁴ is a normal FP32 value).
		f := float32(mant) / (1 << 24)
		if sign != 0 {
			f = -f
		}
		return f
	case 0x1F:
		if mant != 0 {
			return math.Float32frombits(sign | 0x7FC00000) // quiet NaN
		}
		return math.Float32frombits(sign | 0x7F800000)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// Significand16 returns the 11-bit significand of h including the hidden
// bit for normal numbers (subnormals have no hidden bit). This is the
// operand magnitude pattern that drives multiplier-array activity.
func Significand16(h uint16) uint32 {
	mant := uint32(h & F16MantMask)
	if h&F16ExpMask != 0 {
		mant |= 1 << F16MantBits
	}
	return mant
}
