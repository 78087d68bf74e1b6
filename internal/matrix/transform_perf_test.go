package matrix

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bitops"
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

// The per-call forms of the transforms that now draw in bulk: one
// Uint64 or Uint32 call per bit, element or shuffle step, as they were
// written before rng.Source.Fill.
func refDenseFlips(m *Matrix, src *rng.Source, p float64) {
	thresh := uint64(p * (1 << 63))
	for i := range m.Bits {
		var flip uint32
		for b := 0; b < m.DType.Width(); b++ {
			if src.Uint64()>>1 < thresh {
				flip |= 1 << uint(b)
			}
		}
		m.Bits[i] ^= flip
	}
}

func refRandomizeBits(m *Matrix, src *rng.Source, mask uint32) {
	for i := range m.Bits {
		m.Bits[i] = (m.Bits[i] &^ mask) | (src.Uint32() & mask)
	}
}

func refSparsify(m *Matrix, src *rng.Source, frac float64) []int32 {
	n := len(m.Bits)
	k := countOf(frac, n)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	for s := 0; s < k; s++ {
		j := s + src.Intn(n-s)
		idx[s], idx[j] = idx[j], idx[s]
		m.Bits[idx[s]] = 0
	}
	return idx[:k]
}

// TestBulkDrawTransformsMatchPerCall holds the bulk-drawing dense bit
// flips, LSB/MSB randomization and sparsify to their per-call forms,
// word for word and in the generator state they leave, on shapes that
// end partway through a draw chunk.
func TestBulkDrawTransformsMatchPerCall(t *testing.T) {
	type transform struct {
		name      string
		bulk, ref func(m *Matrix, src *rng.Source)
	}
	for _, dt := range ExtendedDTypes {
		w := dt.Width()
		transforms := []transform{
			{"flip(0.3)",
				func(m *Matrix, src *rng.Source) { RandomBitFlips(m, src, 0.3) },
				func(m *Matrix, src *rng.Source) { refDenseFlips(m, src, 0.3) }},
			{"flip(0.999)",
				func(m *Matrix, src *rng.Source) { RandomBitFlips(m, src, 0.999) },
				func(m *Matrix, src *rng.Source) { refDenseFlips(m, src, 0.999) }},
			{"randlsb",
				func(m *Matrix, src *rng.Source) { RandomizeLSBs(m, src, w/2+1) },
				func(m *Matrix, src *rng.Source) { refRandomizeBits(m, src, bitops.LowMask(w/2+1)) }},
			{"randmsb",
				func(m *Matrix, src *rng.Source) { RandomizeMSBs(m, src, w/4) },
				func(m *Matrix, src *rng.Source) { refRandomizeBits(m, src, bitops.HighMask(w/4, w)) }},
			{"sparsify(0.3)",
				func(m *Matrix, src *rng.Source) { Sparsify(m, src, 0.3) },
				func(m *Matrix, src *rng.Source) { refSparsify(m, src, 0.3) }},
		}
		for _, shape := range [][2]int{{1, 1}, {7, 5}, {37, 29}, {64, 64}} {
			for _, tr := range transforms {
				got := New(dt, shape[0], shape[1])
				FillGaussian(got, rng.New(3), 0, DefaultStd(dt))
				want := got.Clone()
				gotSrc, wantSrc := rng.New(9), rng.New(9)
				tr.bulk(got, gotSrc)
				tr.ref(want, wantSrc)
				if !got.Equal(want) {
					t.Errorf("%v %v %s: words differ from the per-call form", dt, shape, tr.name)
				}
				if gotSrc.Uint64() != wantSrc.Uint64() {
					t.Errorf("%v %v %s: generator state differs from the per-call form", dt, shape, tr.name)
				}
			}
		}
	}
}

// TestSparsifyTouchedMatchesShuffle checks the touched list against
// the per-call shuffle's prefix, on a density the tracking keeps.
func TestSparsifyTouchedMatchesShuffle(t *testing.T) {
	got := New(FP32, 61, 47)
	FillGaussian(got, rng.New(4), 0, 210)
	want := got.Clone()
	touched, ok := SparsifyTouched(got, rng.New(8), 0.1)
	prefix := refSparsify(want, rng.New(8), 0.1)
	if !ok || !got.Equal(want) || !slices.Equal(touched, prefix) {
		t.Errorf("SparsifyTouched = (%d touched, ok %v), want the per-call shuffle's %d-element prefix and words",
			len(touched), ok, len(prefix))
	}
}

// TestSparsifyReusesScratch: once the pool holds an index scratch of
// the matrix's size, a sparsify that tracks nothing allocates nothing.
func TestSparsifyReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	m := New(FP16, 64, 64)
	src := rng.New(3)
	if allocs := testing.AllocsPerRun(20, func() { Sparsify(m, src, 0.5) }); allocs != 0 {
		t.Errorf("Sparsify allocated %v times per call, want 0", allocs)
	}
}

// BenchmarkTransform times the transforms of Figs. 4–6 on one 512²
// operand: on FP16, the dense (p ≥ ¼) and geometric bit-flip paths,
// sparsify's partial shuffle and LSB randomization; on FP32, one 50 %
// SortIntoRows of a fresh copy of the operand (sort-rows), and one
// full sort with the four nonzero fractions of a Fig. 5 panel derived
// from it, as a campaign Run builds a panel's prefixes
// (sort-fractions).
func BenchmarkTransform(b *testing.B) {
	cases := []struct {
		name string
		run  func(m *Matrix, src *rng.Source)
	}{
		{"flip-dense", func(m *Matrix, src *rng.Source) { RandomBitFlips(m, src, 0.3) }},
		{"flip-geometric", func(m *Matrix, src *rng.Source) { RandomBitFlips(m, src, 0.05) }},
		{"sparsify", func(m *Matrix, src *rng.Source) { Sparsify(m, src, 0.5) }},
		{"randlsb", func(m *Matrix, src *rng.Source) { RandomizeLSBs(m, src, 8) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m := New(FP16, 512, 512)
			FillGaussian(m, rng.New(1), 0, 210)
			src := rng.New(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run(m, src)
			}
		})
	}
	orig := New(FP32, 512, 512)
	FillGaussian(orig, rng.New(1), 0, 210)
	b.Run("sort-rows", func(b *testing.B) {
		m := orig.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(m.Bits, orig.Bits)
			SortIntoRows(m, 0.5)
		}
	})
	b.Run("sort-fractions", func(b *testing.B) {
		full, dst := New(FP32, 512, 512), New(FP32, 512, 512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			FullSort(full, orig, IntoRows)
			for _, f := range []float64{0.25, 0.5, 0.75, 1} {
				DerivePartialSort(dst, orig, full, IntoRows, f)
			}
		}
	})
}
