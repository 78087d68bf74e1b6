package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("distinct seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestDeriveStreamsIndependent(t *testing.T) {
	a := Derive(7, "matrixA")
	b := Derive(7, "matrixB")
	if a.Uint64() == b.Uint64() {
		t.Error("derived streams should differ")
	}
	// Derivation is itself deterministic.
	c := Derive(7, "matrixA")
	d := Derive(7, "matrixA")
	if c.Uint64() != d.Uint64() {
		t.Error("Derive is not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d of 7 values in 10000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestGaussianMoments(t *testing.T) {
	s := New(99)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Gaussian(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Gaussian mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("Gaussian std = %v, want ~3", math.Sqrt(variance))
	}
}

func TestNormFloat64Symmetry(t *testing.T) {
	s := New(123)
	const n = 100000
	pos := 0
	for i := 0; i < n; i++ {
		if s.NormFloat64() > 0 {
			pos++
		}
	}
	frac := float64(pos) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("positive fraction = %v, want ~0.5", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(8)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermUniformish(t *testing.T) {
	// Position of element 0 should be roughly uniform across many perms.
	s := New(21)
	counts := make([]int, 5)
	const trials = 20000
	for i := 0; i < trials; i++ {
		p := s.Perm(5)
		for pos, v := range p {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-0.2) > 0.02 {
			t.Errorf("element 0 at position %d with frequency %v, want ~0.2", pos, frac)
		}
	}
}

func TestShuffle(t *testing.T) {
	s := New(4)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make([]bool, 8)
	for _, v := range vals {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("value %d lost during shuffle", i)
		}
	}
}

func TestUint32HighBits(t *testing.T) {
	// Uint32 must not be constant and must use high-quality bits.
	s := New(17)
	first := s.Uint32()
	diff := false
	for i := 0; i < 10; i++ {
		if s.Uint32() != first {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("Uint32 appears constant")
	}
}

// TestFillMatchesUint64 holds Fill to the per-call stream: for every
// length from 0 to 600 and several seeds, Fill writes what that many
// Uint64 calls return and leaves the state where they would.
func TestFillMatchesUint64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		for n := 0; n <= 600; n++ {
			ref, bulk := Derive(seed, "fill"), Derive(seed, "fill")
			dst := make([]uint64, n)
			bulk.Fill(dst)
			for i, got := range dst {
				if want := ref.Uint64(); got != want {
					t.Fatalf("seed %d len %d: output %d = %#x, want %#x", seed, n, i, got, want)
				}
			}
			if got, want := bulk.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d len %d: next Uint64 after Fill = %#x, want %#x", seed, n, got, want)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkGaussian(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Gaussian(0, 210)
	}
}

// TestUint64Golden pins the generator's first outputs for a plain and
// a derived seed, so any rewrite of the step keeps the stream.
func TestUint64Golden(t *testing.T) {
	cases := []struct {
		name string
		src  *Source
		want [4]uint64
	}{
		{"New(1)", New(1), [4]uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7}},
		{`Derive(7,"A")`, Derive(7, "A"), [4]uint64{0xb0ab53a0cd8eb405, 0x9b62d18529147a99, 0xe921e61a279539ac, 0x5f7db35eaf4ea5f9}},
	}
	for _, c := range cases {
		for i, w := range c.want {
			if got := c.src.Uint64(); got != w {
				t.Errorf("%s output %d = %#x, want %#x", c.name, i, got, w)
			}
		}
	}
}

func BenchmarkFill(b *testing.B) {
	s := New(1)
	buf := make([]uint64, 512)
	b.SetBytes(int64(8 * len(buf)))
	for i := 0; i < b.N; i++ {
		s.Fill(buf)
	}
}
