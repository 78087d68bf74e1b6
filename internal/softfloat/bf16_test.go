package softfloat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestF32ToBF16KnownValues(t *testing.T) {
	cases := []struct {
		in   float32
		want uint16
	}{
		{0, 0x0000},
		{1, 0x3F80},
		{-1, 0xBF80},
		{2, 0x4000},
		{0.5, 0x3F00},
		{3.389531389251535e38, 0x7F7F},  // largest finite bfloat16
		{float32(math.Inf(1)), 0x7F80},  // +inf
		{float32(math.Inf(-1)), 0xFF80}, // -inf
	}
	for _, c := range cases {
		if got := F32ToBF16(c.in); got != c.want {
			t.Errorf("F32ToBF16(%g) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
	if v := BF16ToF32(F32ToBF16(float32(math.NaN()))); v == v {
		t.Error("NaN should convert to a bfloat16 NaN")
	}
}

func TestBF16RoundTripAll(t *testing.T) {
	// Every non-NaN bfloat16 survives the FP32 round trip exactly.
	for h := uint32(0); h <= 0xFFFF; h++ {
		hb := uint16(h)
		if v := BF16ToF32(hb); v != v {
			continue
		}
		if back := F32ToBF16(BF16ToF32(hb)); back != hb {
			t.Fatalf("round trip failed: %#04x -> %g -> %#04x", hb, BF16ToF32(hb), back)
		}
	}
}

func TestBF16RoundsToNearestEven(t *testing.T) {
	// 1 + 2^-8 is exactly halfway between 1.0 and the next bfloat16;
	// RNE keeps the even mantissa (1.0).
	v := math.Float32frombits(0x3F80_8000)
	if got := F32ToBF16(v); got != 0x3F80 {
		t.Errorf("halfway value should round to even: %#04x", got)
	}
	// 1 + 3·2^-8 is halfway between odd and even; rounds up to even.
	v = math.Float32frombits(0x3F81_8000)
	if got := F32ToBF16(v); got != 0x3F82 {
		t.Errorf("halfway value should round up to even: %#04x", got)
	}
}

func TestBF16ConversionErrorBound(t *testing.T) {
	f := func(b uint32) bool {
		v := math.Float32frombits(b)
		if v != v || math.IsInf(float64(v), 0) {
			return true
		}
		h := BF16ToF32(F32ToBF16(v))
		if math.IsInf(float64(h), 0) {
			// Rounded up past the largest finite value: legal RNE.
			return math.Abs(float64(v)) > 3.3e38
		}
		// Relative error bounded by half ULP = 2^-8 for normals; in the
		// subnormal range the ULP is the fixed 2^-133, so the bound is
		// absolute there.
		if v == 0 {
			return h == 0
		}
		bound := math.Abs(float64(v)) / 256
		if subnormalHalfULP := math.Ldexp(1, -134); bound < subnormalHalfULP {
			bound = subnormalHalfULP
		}
		return math.Abs(float64(h-v)) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestBF16ProductAccumulatesExactlyInF32 checks BF16-T's float32
// accumulator: the product of two bfloat16 values is exact in binary32,
// and the accumulator keeps small addends.
func TestBF16ProductAccumulatesExactlyInF32(t *testing.T) {
	mul := func(x, y float32) float32 { return BF16ToF32(F32ToBF16(x)) * BF16ToF32(F32ToBF16(y)) }
	if acc := mul(1, 1) + mul(2048, 1); acc != 2049 {
		t.Errorf("accumulate = %g, want 2049", acc)
	}
}

func TestSignificandBF16(t *testing.T) {
	if got := SignificandBF16(F32ToBF16(1)); got != 1<<BF16MantBits {
		t.Errorf("significand of 1.0 = %#x, want hidden bit only", got)
	}
	if SignificandBF16(0) != 0 {
		t.Error("zero has no significand bits")
	}
	// BF16 significands are 8 bits vs FP16's 11 — the physical reason
	// the power model predicts lower BF16 multiplier activity.
	if SignificandBF16(0xFFFF)>>8 != 0 {
		t.Error("BF16 significand must fit in 8 bits")
	}
}
