package softfloat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// refF32ToF16 is an independent reference conversion using float64
// arithmetic and strconv-free logic, exercised against the bit-twiddling
// implementation.
func refF32ToF16(f float32) uint16 {
	d := float64(f)
	sign := uint16(0)
	if math.Signbit(d) {
		sign = 0x8000
	}
	ad := math.Abs(d)
	switch {
	case math.IsNaN(d):
		return sign | 0x7E00
	case math.IsInf(d, 0):
		return sign | 0x7C00
	case ad == 0:
		return sign
	}
	// Round to the binary16 grid using float64 (exact for all binary32
	// inputs: float64 has plenty of precision).
	// Overflow threshold: values >= 65520 round to +inf.
	if ad >= 65520 {
		return sign | 0x7C00
	}
	exp := math.Floor(math.Log2(ad))
	e := int(exp)
	if e < -14 {
		e = -14 // subnormal range
	}
	scale := math.Ldexp(1, 10-e)
	scaled := ad * scale
	r := math.RoundToEven(scaled)
	// Renormalize if rounding crossed a binade.
	if r >= 2048 && e >= -14 {
		r /= 2
		e++
		if e > 15 {
			return sign | 0x7C00
		}
	}
	if e == -14 && r < 1024 {
		// Subnormal encoding.
		return sign | uint16(r)
	}
	return sign | uint16(e+15)<<10 | uint16(int(r)-1024)
}

func TestF32ToF16KnownValues(t *testing.T) {
	cases := []struct {
		in   float32
		want uint16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},                  // largest normal binary16
		{65520, 0x7C00},                  // rounds to +inf
		{100000, 0x7C00},                 // overflow
		{5.960464477539063e-08, 0x0001},  // smallest subnormal
		{6.097555160522461e-05, 0x03FF},  // largest subnormal
		{6.103515625e-05, 0x0400},        // smallest normal
		{2.980232238769531e-08, 0x0000},  // exactly half ULP rounds to even (0)
		{2.9802322387695312e-08, 0x0000}, // same value
		{1.0009765625, 0x3C01},           // 1 + 2^-10
		{float32(math.Inf(1)), 0x7C00},   // +inf
		{float32(math.Inf(-1)), 0xFC00},  // -inf
		{float32(math.NaN()), 0x7E00},    // NaN quiets
		{0.333251953125, 0x3555},         // closest f16 to 1/3
		{-210.0, 0xDA90},                 // paper's FP stddev scale
	}
	for _, c := range cases {
		if got := F32ToF16(c.in); got != c.want {
			t.Errorf("F32ToF16(%g) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
}

func TestF16ToF32KnownValues(t *testing.T) {
	cases := []struct {
		in   uint16
		want float32
	}{
		{0x0000, 0},
		{0x3C00, 1},
		{0xBC00, -1},
		{0x4000, 2},
		{0x3800, 0.5},
		{0x7BFF, 65504},
		{0x0001, 5.960464477539063e-08},
		{0x03FF, 6.097555160522461e-05},
		{0x0400, 6.103515625e-05},
	}
	for _, c := range cases {
		if got := F16ToF32(c.in); got != c.want {
			t.Errorf("F16ToF32(%#04x) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsInf(float64(F16ToF32(0x7C00)), 1) {
		t.Error("0x7C00 should decode to +inf")
	}
	if !math.IsInf(float64(F16ToF32(0xFC00)), -1) {
		t.Error("0xFC00 should decode to -inf")
	}
	if v := F16ToF32(0x7E00); v == v {
		t.Error("0x7E00 should decode to NaN")
	}
	if math.Signbit(float64(F16ToF32(0x8000))) != true {
		t.Error("0x8000 should decode to -0")
	}
}

func TestRoundTripAllF16(t *testing.T) {
	// Every finite binary16 value must survive a round trip through FP32
	// exactly.
	for h := uint32(0); h <= 0xFFFF; h++ {
		hb := uint16(h)
		if v := F16ToF32(hb); v != v {
			continue
		}
		back := F32ToF16(F16ToF32(hb))
		// -0 and +0 keep their signs; everything else must be identical.
		if back != hb {
			t.Fatalf("round trip failed: %#04x -> %g -> %#04x", hb, F16ToF32(hb), back)
		}
	}
}

func TestConversionMatchesReference(t *testing.T) {
	f := func(b uint32) bool {
		v := math.Float32frombits(b)
		if v != v { // NaN payloads quiet differently; skip
			return true
		}
		return F32ToF16(v) == refF32ToF16(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestF32ToF16NormalMatchesF32ToF16 holds the inlinable normal path to
// F32ToF16 and to the field-by-field reference: over every sign and
// exponent, with mantissas around the rounding boundaries (below, at
// and above the tie, the tie with an odd kept bit, all ones) and over
// random patterns, ok must hold exactly for exponents 113–142, and the
// half must then be F32ToF16's.
func TestF32ToF16NormalMatchesF32ToF16(t *testing.T) {
	check := func(b uint32) {
		t.Helper()
		f := math.Float32frombits(b)
		h, ok := F32ToF16Normal(f)
		exp := b >> 23 & 0xFF
		if want := exp >= 113 && exp <= 142; ok != want {
			t.Fatalf("%#08x: ok = %v, want %v", b, ok, want)
		}
		if !ok {
			return
		}
		if want := F32ToF16(f); h != want {
			t.Fatalf("%#08x: half %#04x, F32ToF16 %#04x", b, h, want)
		}
		if want := f32ToF16Compute(f); h != want {
			t.Fatalf("%#08x: half %#04x, reference %#04x", b, h, want)
		}
	}
	for sign := uint32(0); sign < 2; sign++ {
		for exp := uint32(0); exp < 256; exp++ {
			for _, mant := range []uint32{0, 1, 0xFFF, 0x1000, 0x1001, 0x1FFF, 0x2000, 0x3000, 0x7FFFFF} {
				check(sign<<31 | exp<<23 | mant)
			}
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1<<16; i++ {
		check(r.Uint32())
	}
}

func TestConversionMonotone(t *testing.T) {
	// RNE conversion must be monotone non-decreasing on finite positives.
	f := func(a, b float32) bool {
		if a != a || b != b {
			return true
		}
		x, y := a, b
		if x > y {
			x, y = y, x
		}
		hx, hy := F32ToF16(x), F16ToF32(F32ToF16(y))
		_ = hy
		return F16ToF32(hx) <= F16ToF32(F32ToF16(y)) ||
			math.IsNaN(float64(F16ToF32(hx)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestConversionErrorBound(t *testing.T) {
	// |x - round16(x)| <= ulp16(x)/2 for values in the normal range.
	f := func(b uint32) bool {
		v := math.Float32frombits(b & 0x7FFFFFFF)
		if v != v || v < 6.2e-5 || v > 65504 {
			return true
		}
		h := F16ToF32(F32ToF16(v))
		exp := math.Floor(math.Log2(float64(v)))
		ulp := math.Ldexp(1, int(exp)-10)
		return math.Abs(float64(h)-float64(v)) <= ulp/2+1e-30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

// TestF16ProductRoundsOnce checks the fact the sampled walk's FP16 and
// FP16-T arms rely on: the product of two binary16 values (at most 22
// significand bits) is exact in float32, so FP16-T accumulates it
// unrounded and one F32ToF16 of it is the correctly rounded binary16
// product.
func TestF16ProductRoundsOnce(t *testing.T) {
	f := func(x, y uint16) bool {
		fx, fy := F16ToF32(x), F16ToF32(y)
		want := float64(fx) * float64(fy)
		return math.IsNaN(want) || float64(fx*fy) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// mul16 and add16 are the binary16 steps of the walk's FP16 arm: the
// float32 operation, rounded once to binary16.
func mul16(x, y uint16) uint16 { return F32ToF16(F16ToF32(x) * F16ToF32(y)) }
func add16(x, y uint16) uint16 { return F32ToF16(F16ToF32(x) + F16ToF32(y)) }

func TestF16ProductKnownValues(t *testing.T) {
	two, three := F32ToF16(2), F32ToF16(3)
	if got := F16ToF32(mul16(two, three)); got != 6 {
		t.Errorf("2*3 = %g, want 6", got)
	}
	// Overflow saturates to infinity.
	if got := F16ToF32(mul16(F32ToF16(60000), two)); !math.IsInf(float64(got), 1) {
		t.Errorf("60000*2 = %g, want +Inf (overflow)", got)
	}
	// Multiplication by zero gives +0.
	if got := mul16(0, three); got != 0 {
		t.Errorf("0*3 = %#x, want +0", got)
	}
}

func TestF16SumKnownValues(t *testing.T) {
	one := F32ToF16(1)
	if got := F16ToF32(add16(one, one)); got != 2 {
		t.Errorf("1+1 = %g, want 2", got)
	}
	// 2048 + 1 rounds back to 2048 in binary16 (the ULP at 2048 is 2),
	// so a binary16 accumulator drops the addend.
	if got := F16ToF32(add16(F32ToF16(2048), one)); got != 2048 {
		t.Errorf("2048+1 in binary16 = %g, want 2048 (absorbed)", got)
	}
}

// TestF16ProductAccumulatesExactlyInF32 checks FP16-T's float32
// accumulator: a binary16 product enters it exactly, and it keeps the
// small addend a binary16 accumulator absorbs.
func TestF16ProductAccumulatesExactlyInF32(t *testing.T) {
	mul := func(x, y float32) float32 { return F16ToF32(F32ToF16(x)) * F16ToF32(F32ToF16(y)) }
	if got := mul(1.5, 2.25); got != 3.375 {
		t.Errorf("1.5*2.25 = %g, want 3.375", got)
	}
	if acc := mul(1, 1) + mul(2048, 1); acc != 2049 {
		t.Errorf("float32 accumulate of 1*1 + 2048*1 = %g, want 2049", acc)
	}
}

// TestF16AccumulatorAbsorbsWhereF32Keeps sums 4096 products 1*1 the way
// the walk's two FP16 arms do: plain FP16's binary16 accumulator stops
// at 2048, where each further 1 is absorbed, while FP16-T's float32
// accumulator reaches 4096. This is why the two FP16 setups differ on
// long reductions.
func TestF16AccumulatorAbsorbsWhereF32Keeps(t *testing.T) {
	const k = 4096
	one := F32ToF16(1)
	var acc16 uint16
	var acc32 float32
	for range k {
		acc16 = add16(acc16, mul16(one, one))
		acc32 += F16ToF32(one) * F16ToF32(one)
	}
	if got := F16ToF32(acc16); got != 2048 {
		t.Errorf("binary16 accumulate of %d ones = %g, want 2048 (saturated)", k, got)
	}
	if acc32 != k {
		t.Errorf("float32 accumulate of %d ones = %g, want %d", k, acc32, k)
	}
}

func TestSignificand16(t *testing.T) {
	if got := Significand16(F32ToF16(1)); got != 0x400 {
		t.Errorf("significand of 1.0 = %#x, want 0x400 (hidden bit only)", got)
	}
	if got := Significand16(0x0001); got != 1 {
		t.Errorf("subnormal significand = %#x, want 1 (no hidden bit)", got)
	}
	if got := Significand16(0); got != 0 {
		t.Errorf("zero significand = %#x, want 0", got)
	}
}

func TestSignificand32(t *testing.T) {
	if got := Significand32(math.Float32bits(1)); got != 1<<23 {
		t.Errorf("significand of 1.0f = %#x", got)
	}
	if got := Significand32(0); got != 0 {
		t.Errorf("zero significand = %#x, want 0", got)
	}
}

func TestF32ToI8(t *testing.T) {
	cases := []struct {
		in   float32
		want int8
	}{
		{0, 0},
		{1.4, 1},
		{1.5, 2},   // round half to even
		{2.5, 2},   // round half to even
		{-1.5, -2}, // round half to even
		{-2.5, -2},
		{127.4, 127},
		{300, 127},   // saturate high
		{-300, -128}, // saturate low
		{-128.4, -128},
		{float32(math.NaN()), 0},
	}
	for _, c := range cases {
		if got := F32ToI8(c.in); got != c.want {
			t.Errorf("F32ToI8(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestI8Magnitude(t *testing.T) {
	if I8Magnitude(-128) != 128 {
		t.Error("magnitude of MinInt8 should be 128")
	}
	if I8Magnitude(127) != 127 {
		t.Error("magnitude of 127 should be 127")
	}
	if I8Magnitude(-1) != 1 {
		t.Error("magnitude of -1 should be 1")
	}
	if I8Magnitude(0) != 0 {
		t.Error("magnitude of 0 should be 0")
	}
}

func BenchmarkF32ToF16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = F32ToF16(float32(i) * 0.1)
	}
}
