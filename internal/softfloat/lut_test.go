package softfloat

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/rng"
)

// Exhaustive equivalence of the 65,536-entry tables against the
// computed conversions, over every 16-bit pattern — including every
// NaN payload, both infinities, and all subnormals.

func TestF16DecodeLUTExhaustive(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		h := uint16(i)
		got := math.Float32bits(F16ToF32(h))
		want := math.Float32bits(f16ToF32Compute(h))
		if got != want {
			t.Fatalf("F16ToF32(%#04x): LUT bits %#08x, computed %#08x", h, got, want)
		}
	}
}

func TestSigPopLUTsExhaustive(t *testing.T) {
	sig16, sigBF16, magI8 := SigPop16Table(), SigPopBF16Table(), MagPopI8WideTable()
	for i := 0; i <= 0xFFFF; i++ {
		h := uint16(i)
		if got, want := int(sig16[h]), bits.OnesCount32(Significand16(h)); got != want {
			t.Fatalf("SigPop16Table()[%#04x] = %d, want %d", h, got, want)
		}
		if got, want := int(sigBF16[h]), bits.OnesCount32(SignificandBF16(h)); got != want {
			t.Fatalf("SigPopBF16Table()[%#04x] = %d, want %d", h, got, want)
		}
		if got, want := int(magI8[h]), bits.OnesCount32(I8Magnitude(int8(uint8(h)))); got != want {
			t.Fatalf("MagPopI8WideTable()[%#04x] = %d, want %d", h, got, want)
		}
	}
}

// checkF32ToF16 compares the fast magic-number encoder against the
// field-by-field reference on one FP32 bit pattern.
func checkF32ToF16(t *testing.T, b uint32) {
	t.Helper()
	f := math.Float32frombits(b)
	got, want := F32ToF16(f), f32ToF16Compute(f)
	if got != want {
		t.Fatalf("F32ToF16(bits %#08x = %v): fast %#04x, reference %#04x", b, f, got, want)
	}
}

func TestF32ToF16FastEquivalence(t *testing.T) {
	// Every binary16 value's exact FP32 image, its bit-pattern
	// neighbourhood, and the exact rounding midpoints between
	// consecutive representable halves (the RNE tie cases).
	for i := 0; i <= 0xFFFF; i++ {
		h := uint16(i)
		fb := math.Float32bits(f16ToF32Compute(h))
		for _, d := range []uint32{0, 1, 2, 3, 0x1000, 0x1FFF} {
			checkF32ToF16(t, fb+d)
			checkF32ToF16(t, fb-d)
		}
	}
	// Specials: zeros, infinities, NaN payloads, overflow boundary
	// (65504 is the largest half; 65520 is the first FP32 rounding to
	// +Inf), and FP32 subnormals.
	for _, b := range []uint32{
		0x00000000, 0x80000000, // ±0
		0x7F800000, 0xFF800000, // ±Inf
		0x7F800001, 0x7FC00000, 0xFFC00001, 0x7FFFFFFF, // NaNs
		0x477FE000, 0x477FF000, 0x477FF001, 0x47800000, // 65504 … 65536
		0x00000001, 0x007FFFFF, 0x00800000, // FP32 subnormal range
		0x33800000, 0x33800001, 0x337FFFFF, // around 2⁻²⁴ (half of min subnormal)
		0x38800000, 0x387FFFFF, // smallest normal half boundary
	} {
		checkF32ToF16(t, b)
		checkF32ToF16(t, b|0x80000000)
	}
	// Random sweep over the full pattern space.
	src := rng.New(0xF16)
	for i := 0; i < 2_000_000; i++ {
		checkF32ToF16(t, src.Uint32())
	}
}

func TestF32ToI8FastEquivalence(t *testing.T) {
	check := func(f float32) {
		if got, want := F32ToI8(f), f32ToI8Compute(f); got != want {
			t.Fatalf("F32ToI8(%v): fast %d, reference %d", f, got, want)
		}
	}
	// Dense sweep across the saturating range including every x.5 tie.
	for i := -140_000; i <= 140_000; i++ {
		check(float32(i) / 1000)
	}
	for _, f := range []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		-128.5, -128, -127.5, 126.5, 127, 127.5, 128, 1e30, -1e30,
		math.Float32frombits(1), math.Float32frombits(0x80000001),
	} {
		check(f)
	}
	src := rng.New(0x18)
	for i := 0; i < 1_000_000; i++ {
		check(math.Float32frombits(src.Uint32()))
	}
}
