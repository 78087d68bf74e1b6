package softfloat

import "math"

// F32ToI8 converts an FP32 value to a signed 8-bit integer with
// round-to-nearest-even and saturation at the type bounds, matching the
// "round to nearest value" conversion the paper applies to INT8 inputs.
//
// Rounding uses the 2⁵²+2⁵¹ magic-number trick: adding the constant
// shifts the integer part of the double into the low mantissa bits, and
// the FP64 addition itself performs the round-to-nearest-even. This is
// branch-free on the hot path and bit-identical to
// math.RoundToEven-based conversion (verified in lut_test.go).
func F32ToI8(f float32) int8 {
	if f != f { // NaN
		return 0
	}
	if f >= 127 {
		return 127
	}
	if f <= -128 {
		return -128
	}
	// |f| < 128.5 here, far inside the magic trick's |x| < 2⁵¹ range.
	d := float64(f) + (1<<52 + 1<<51)
	return int8(int32(uint32(math.Float64bits(d))))
}

// f32ToI8Compute is the math.RoundToEven-based reference conversion the
// fast path is tested against.
func f32ToI8Compute(f float32) int8 {
	if f != f { // NaN
		return 0
	}
	r := math.RoundToEven(float64(f))
	switch {
	case r > 127:
		return 127
	case r < -128:
		return -128
	default:
		return int8(r)
	}
}

// I8Magnitude returns the magnitude bit pattern of an INT8 value as an
// unsigned byte. The multiplier-array activity weight for integer
// operands is the Hamming weight of this magnitude. Minint (-128) maps
// to 128, which still fits in the returned uint32.
func I8Magnitude(v int8) uint32 {
	if v < 0 {
		return uint32(-int32(v))
	}
	return uint32(v)
}
