package softfloat

import "math"

// Binary32 field layout constants.
const (
	F32SignMask uint32 = 0x80000000
	F32ExpMask  uint32 = 0x7F800000
	F32MantMask uint32 = 0x007FFFFF
	F32MantBits        = 23
)

// F32FromBits reinterprets a bit pattern as FP32.
func F32FromBits(b uint32) float32 { return math.Float32frombits(b) }

// Significand32 returns the 24-bit significand of f including the hidden
// bit for normal numbers. This drives the FP32 multiplier-array activity
// weight.
func Significand32(b uint32) uint32 {
	mant := b & F32MantMask
	if b&F32ExpMask != 0 {
		mant |= 1 << F32MantBits
	}
	return mant
}

// MulF32 returns a*b under a fixed NaN rule: when a is NaN, the
// result is a, quieted, as an SSE multiply whose first source is a
// returns it. A bare a*b leaves the choice of first source to the
// register allocator, so when both operands are NaN the surviving one,
// and with it the result's sign, could change with the build. A NaN b
// alone propagates, quieted, in either order, so only a is tested.
func MulF32(a, b float32) float32 {
	if a != a {
		return quietF32(a)
	}
	return a * b
}

// AddF32 is a+b with MulF32's NaN rule.
func AddF32(a, b float32) float32 {
	if a != a {
		return quietF32(a)
	}
	return a + b
}

func quietF32(f float32) float32 {
	return math.Float32frombits(math.Float32bits(f) | 0x0040_0000)
}
