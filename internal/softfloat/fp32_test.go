package softfloat

import (
	"math"
	"testing"
)

// TestMulAddF32NaNRule: when both operands are NaN, MulF32 and AddF32
// return the first, quieted, whatever either one's sign and payload; a
// lone NaN propagates quieted from either side; numbers give the plain
// product and sum.
func TestMulAddF32NaNRule(t *testing.T) {
	nan := func(bits uint32) float32 { return math.Float32frombits(bits) }
	ops := []struct {
		name string
		f    func(a, b float32) float32
	}{{"MulF32", MulF32}, {"AddF32", AddF32}}
	cases := []struct {
		a, b float32
		want uint32
	}{
		{nan(0x7FC00000), nan(0xFFC00000), 0x7FC00000},
		{nan(0xFFC00000), nan(0x7FC00000), 0xFFC00000},
		{nan(0x7F800001), nan(0xFFC00123), 0x7FC00001}, // signaling first: quieted
		{nan(0xFFC00123), nan(0x7F800001), 0xFFC00123},
		{nan(0xFF800005), 3, 0xFFC00005},
		{3, nan(0x7F800005), 0x7FC00005},
	}
	for _, op := range ops {
		for _, c := range cases {
			if got := math.Float32bits(op.f(c.a, c.b)); got != c.want {
				t.Errorf("%s(%#x, %#x) = %#x, want %#x", op.name,
					math.Float32bits(c.a), math.Float32bits(c.b), got, c.want)
			}
		}
	}
	if got := MulF32(1.5, -2); got != -3 {
		t.Errorf("MulF32(1.5, -2) = %v, want -3", got)
	}
	if got := AddF32(1.5, -2); got != -0.5 {
		t.Errorf("AddF32(1.5, -2) = %v, want -0.5", got)
	}
}
