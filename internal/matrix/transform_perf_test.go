package matrix

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestOrderKeyMatchesNumericOrder checks, for every 16-bit pattern pair
// sampled densely and for all INT8 patterns exhaustively, that the
// raw-bit sort keys order exactly like the decoded values (NaNs
// excluded — their order is arbitrary but deterministic).
func TestOrderKeyMatchesNumericOrder(t *testing.T) {
	for _, dt := range []DType{FP16, FP16T, BF16T} {
		key := orderKeyOf(dt).of
		// Collect all non-NaN patterns.
		var pats []uint32
		for b := 0; b <= 0xFFFF; b++ {
			if !math.IsNaN(dt.Decode(uint32(b))) {
				pats = append(pats, uint32(b))
			}
		}
		src := rng.New(uint64(dt) + 3)
		for trial := 0; trial < 200_000; trial++ {
			a := pats[src.Intn(len(pats))]
			b := pats[src.Intn(len(pats))]
			va, vb := dt.Decode(a), dt.Decode(b)
			ka, kb := key(a), key(b)
			if va < vb && ka >= kb {
				t.Fatalf("%v: decode(%#x)=%v < decode(%#x)=%v but key %#x >= %#x",
					dt, a, va, b, vb, ka, kb)
			}
			if va > vb && ka <= kb {
				t.Fatalf("%v: key order inverted for %#x,%#x", dt, a, b)
			}
		}
	}
	key := orderKeyOf(INT8).of
	for a := 0; a <= 0xFF; a++ {
		for b := 0; b <= 0xFF; b++ {
			va, vb := int8(uint8(a)), int8(uint8(b))
			if (va < vb) != (key(uint32(a)) < key(uint32(b))) {
				t.Fatalf("INT8 key order wrong for %d,%d", va, vb)
			}
		}
	}
	kf := orderKeyOf(FP32).of
	for _, pair := range [][2]float32{{-1, 1}, {-0, 0}, {1.5, 2}, {-3e30, -2e30},
		{float32(math.Inf(-1)), -1e38}, {65504, float32(math.Inf(1))}} {
		a, b := math.Float32bits(pair[0]), math.Float32bits(pair[1])
		if kf(a) >= kf(b) && pair[0] < pair[1] {
			t.Fatalf("FP32 key order wrong for %v,%v", pair[0], pair[1])
		}
	}
}

// TestRandomBitFlipsRate checks both regimes (threshold compares for
// dense p, geometric skipping for sparse p) produce the requested
// per-bit flip probability.
func TestRandomBitFlipsRate(t *testing.T) {
	for _, p := range []float64{0.05, 0.1, 0.3, 0.5, 1} {
		m := New(FP32, 256, 256)
		RandomBitFlips(m, rng.New(7), p)
		var flips int64
		for _, b := range m.Bits {
			flips += int64(popcount(b))
		}
		totalBits := float64(len(m.Bits) * 32)
		got := float64(flips) / totalBits
		se := math.Sqrt(p * (1 - p) / totalBits)
		if math.Abs(got-p) > 8*se+1e-12 {
			t.Errorf("p=%v: flip rate %v (want ±%v)", p, got, 8*se)
		}
	}
}

// TestSparsifyExactCount: the partial Fisher–Yates must zero exactly
// round(frac·n) elements.
func TestSparsifyExactCount(t *testing.T) {
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 1} {
		m := New(FP16, 64, 64)
		FillConstant(m, 3)
		Sparsify(m, rng.New(5), frac)
		zeros := 0
		for _, b := range m.Bits {
			if b == 0 {
				zeros++
			}
		}
		want := countOf(frac, len(m.Bits))
		if zeros != want {
			t.Errorf("frac=%v: %d zeros, want %d", frac, zeros, want)
		}
	}
}
