package rng

import (
	"math"
	"testing"
)

// TestZigguratTables checks the invariants the sampler relies on:
// strictly decreasing layer edges, ratios in (0,1], and equal layer
// areas (the defining property of the ziggurat construction).
func TestZigguratTables(t *testing.T) {
	if zigX[1] != zigR || zigX[256] != 0 {
		t.Fatalf("edge anchors wrong: x[1]=%v x[256]=%v", zigX[1], zigX[256])
	}
	for i := 0; i < 256; i++ {
		if zigX[i+1] >= zigX[i] {
			t.Fatalf("zigX not strictly decreasing at %d: %v >= %v", i, zigX[i+1], zigX[i])
		}
		if zigXScale[i] <= 0 || zigXScale[i] >= 1 {
			t.Fatalf("zigXScale[%d] = %v out of (0,1)", i, zigXScale[i])
		}
	}
	// Layer areas: x[i]·(f(x[i+1]) − f(x[i])) == V for the rectangular
	// layers (1..255).
	for i := 1; i < 256; i++ {
		area := zigX[i] * (zigF[i+1] - zigF[i])
		if math.Abs(area-zigV) > 1e-9 {
			t.Fatalf("layer %d area = %v, want %v", i, area, zigV)
		}
	}
}

// TestNormFloat64Distribution compares empirical tail probabilities
// against the standard normal CDF at several thresholds. With n = 2e6
// the binomial standard error at p≈0.16 is ~2.6e-4; tolerances are set
// at ~8σ so the test is deterministic-tight but not flaky across seeds.
func TestNormFloat64Distribution(t *testing.T) {
	const n = 2_000_000
	src := New(0x216)
	thresholds := []float64{0.5, 1, 2, 3}
	counts := make([]int, len(thresholds))
	var maxAbs float64
	for i := 0; i < n; i++ {
		v := src.NormFloat64()
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
		for ti, thr := range thresholds {
			if v > thr {
				counts[ti]++
			}
		}
	}
	for ti, thr := range thresholds {
		got := float64(counts[ti]) / n
		want := 0.5 * math.Erfc(thr/math.Sqrt2)
		se := math.Sqrt(want * (1 - want) / n)
		if math.Abs(got-want) > 8*se {
			t.Errorf("P(X > %v) = %v, want %v ± %v", thr, got, want, 8*se)
		}
	}
	// The tail sampler must actually produce values beyond the base
	// layer edge R.
	if maxAbs <= zigR {
		t.Errorf("no variate beyond the ziggurat base edge %v in %d draws", zigR, n)
	}
}

// slowDraws counts, for n NormFloat64 calls on a copy of src, the
// variates whose first draw falls outside its layer's rectangle: in
// the base layer (the tail) or in another (the wedge), and the wedge
// draws it rejects, which start over from a fresh draw.
func slowDraws(src Source, n int) (tail, wedge, rejected int) {
	for ; n > 0; n-- {
		peek := src
		u64 := peek.Uint64()
		i := int(u64 & 0xFF)
		slow := float64(u64>>11)*zigXScale[i] >= zigX[i+1]
		src.NormFloat64()
		switch {
		case !slow:
		case i == 0:
			tail++
		default:
			wedge++
			// An accepted wedge draw takes one more uniform.
			if peek.Uint64(); peek != src {
				rejected++
			}
		}
	}
	return tail, wedge, rejected
}

// checkFillNorm requires FillNorm of n variates, split over two calls
// at split, to write what n NormFloat64 calls return bit for bit and
// to leave the stream where they do.
func checkFillNorm(t *testing.T, seed uint64, n, split int) {
	t.Helper()
	got := make([]float64, n)
	fill, ref := New(seed), New(seed)
	fill.FillNorm(got[:split])
	fill.FillNorm(got[split:])
	for i, v := range got {
		if want := ref.NormFloat64(); math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("seed %#x n %d split %d: variate %d = %v (%#x), NormFloat64 %v (%#x)",
				seed, n, split, i, v, math.Float64bits(v), want, math.Float64bits(want))
		}
	}
	if g, w := fill.Uint64(), ref.Uint64(); g != w {
		t.Fatalf("seed %#x n %d split %d: next Uint64 %#x, want %#x", seed, n, split, g, w)
	}
}

// slowPathSeeds reach the tail within their draw counts, and accept
// and reject wedge draws too; the fuzz corpus holds the same cases.
var slowPathSeeds = []struct {
	seed uint64
	n    int
}{{0x7, 600}, {0x6e, 600}, {0x89, 4096}}

// FuzzFillNormMatchesNormFloat64 holds FillNorm to NormFloat64 for any
// seed, any length up to 4096 and any split of it into two calls.
func FuzzFillNormMatchesNormFloat64(f *testing.F) {
	f.Add(uint64(1), uint16(512), uint16(100))
	f.Fuzz(func(t *testing.T, seed uint64, n, split uint16) {
		size := int(n) % 4097
		checkFillNorm(t, seed, size, int(split)%(size+1))
	})
}

// TestFillNormSlowPaths replays slowPathSeeds, which must reach both
// slow paths, so the fuzz corpus covers them.
func TestFillNormSlowPaths(t *testing.T) {
	for _, c := range slowPathSeeds {
		if tail, wedge, rejected := slowDraws(*New(c.seed), c.n); tail == 0 || wedge == 0 || rejected == 0 {
			t.Errorf("seed %#x n %d: %d tail, %d wedge and %d rejected wedge draws, want each",
				c.seed, c.n, tail, wedge, rejected)
		}
		checkFillNorm(t, c.seed, c.n, c.n/3)
	}
}

// BenchmarkNorm draws one 512² operand's standard variates, a 512-wide
// row at a time, through FillNorm and through the NormFloat64 loop it
// replaces.
func BenchmarkNorm(b *testing.B) {
	raw := make([]float64, 512)
	b.Run("FillNorm", func(b *testing.B) {
		src := New(1)
		for i := 0; i < b.N; i++ {
			for r := 0; r < 512; r++ {
				src.FillNorm(raw)
			}
		}
	})
	b.Run("NormFloat64", func(b *testing.B) {
		src := New(1)
		for i := 0; i < b.N; i++ {
			for r := 0; r < 512; r++ {
				for j := range raw {
					raw[j] = src.NormFloat64()
				}
			}
		}
	})
}
