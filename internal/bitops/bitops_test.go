package bitops

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestPopcounts(t *testing.T) {
	cases := []struct {
		v    uint32
		want int
	}{
		{0, 0},
		{1, 1},
		{0xFF, 8},
		{0xFFFF, 16},
		{0xFFFFFFFF, 32},
		{0xAAAAAAAA, 16},
		{0x80000001, 2},
	}
	for _, c := range cases {
		if got := Popcount32(c.v); got != c.want {
			t.Errorf("Popcount32(%#x) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestToggle(t *testing.T) {
	if Toggle32(0, 0xFFFFFFFF) != 32 {
		t.Error("full toggle should be 32")
	}
	if Toggle32(0xDEADBEEF, 0xDEADBEEF) != 0 {
		t.Error("self toggle should be 0")
	}
}

func TestToggleSymmetric(t *testing.T) {
	f := func(a, b uint32) bool { return Toggle32(a, b) == Toggle32(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToggleTriangleInequality(t *testing.T) {
	// Hamming distance is a metric: d(a,c) <= d(a,b) + d(b,c).
	f := func(a, b, c uint32) bool {
		return Toggle32(a, c) <= Toggle32(a, b)+Toggle32(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToggleSum32(t *testing.T) {
	if ToggleSum32(nil) != 0 {
		t.Error("empty stream should have zero activity")
	}
	if ToggleSum32([]uint32{42}) != 0 {
		t.Error("single-element stream should have zero activity")
	}
	got := ToggleSum32([]uint32{0, 1, 3, 3})
	// 0^1=1 bit, 1^3=1 bit, 3^3=0 bits.
	if got != 2 {
		t.Errorf("ToggleSum32 = %d, want 2", got)
	}
	// Constant stream: no toggles regardless of value.
	if ToggleSum32([]uint32{7, 7, 7, 7, 7}) != 0 {
		t.Error("constant stream must have zero toggles")
	}
}

func TestMeanHamming(t *testing.T) {
	if MeanHamming(nil, 32) != 0 {
		t.Error("empty mean hamming should be 0")
	}
	got := MeanHamming([]uint32{0x0F, 0xF0}, 8)
	if got != 4 {
		t.Errorf("MeanHamming = %v, want 4", got)
	}
	// Width masks high bits.
	got = MeanHamming([]uint32{0xFFFF}, 8)
	if got != 8 {
		t.Errorf("MeanHamming width-masked = %v, want 8", got)
	}
}

func TestMasks(t *testing.T) {
	if LowMask(0) != 0 || LowMask(-3) != 0 {
		t.Error("LowMask of non-positive should be 0")
	}
	if LowMask(8) != 0xFF {
		t.Error("LowMask(8) != 0xFF")
	}
	if LowMask(32) != 0xFFFFFFFF || LowMask(40) != 0xFFFFFFFF {
		t.Error("LowMask(>=32) should saturate")
	}
	if HighMask(4, 16) != 0xF000 {
		t.Errorf("HighMask(4,16) = %#x, want 0xF000", HighMask(4, 16))
	}
	if HighMask(0, 16) != 0 {
		t.Error("HighMask(0,·) should be 0")
	}
	if HighMask(20, 16) != 0xFFFF {
		t.Error("HighMask should clamp n to width")
	}
	// Low and high masks partition the lane.
	for n := 0; n <= 16; n++ {
		lo, hi := LowMask(16-n), HighMask(n, 16)
		if lo^hi != 0xFFFF || lo&hi != 0 {
			t.Errorf("masks do not partition at n=%d: lo=%#x hi=%#x", n, lo, hi)
		}
	}
}

func TestToggleMatchesStdlib(t *testing.T) {
	f := func(a, b uint32) bool {
		return Toggle32(a, b) == bits.OnesCount32(a^b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
