package softfloat

import "math"

// bfloat16 support — an extension beyond the paper's four datatype
// setups (§V motivates exploring datatype effects on power; BF16 is the
// other 16-bit AI format and the model predicts its power behaviour:
// an 8-bit significand drives fewer multiplier partial products than
// FP16's 11 bits, at identical storage width and tensor-core rate).
//
// bfloat16 layout: sign(1) exponent(8) mantissa(7) — the top half of an
// IEEE binary32 value.

// Bfloat16 field layout constants.
const (
	BF16ExpMask  uint16 = 0x7F80
	BF16MantMask uint16 = 0x007F
	BF16MantBits        = 7
)

// F32ToBF16 converts FP32 to bfloat16 with round-to-nearest-even. NaNs
// are quieted; overflow cannot occur (same exponent range).
func F32ToBF16(f float32) uint16 {
	b := math.Float32bits(f)
	if b&F32ExpMask == F32ExpMask && b&F32MantMask != 0 {
		return uint16(b>>16) | 0x0040 // quiet NaN, keep sign
	}
	rounded := b >> 16
	rem := b & 0xFFFF
	if rem > 0x8000 || (rem == 0x8000 && rounded&1 == 1) {
		rounded++
		// A mantissa carry propagates into the exponent; carrying out
		// of the max finite exponent yields the infinity encoding,
		// which is correct RNE overflow behaviour.
	}
	return uint16(rounded)
}

// BF16ToF32 converts bfloat16 to FP32 exactly.
func BF16ToF32(h uint16) float32 {
	return math.Float32frombits(uint32(h) << 16)
}

// SignificandBF16 returns the 8-bit significand including the hidden
// bit for normal numbers.
func SignificandBF16(h uint16) uint32 {
	mant := uint32(h & BF16MantMask)
	if h&BF16ExpMask != 0 {
		mant |= 1 << BF16MantBits
	}
	return mant
}
