package patterns

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/rng"
)

func fill(t *testing.T, p Pattern, dt matrix.DType, seed uint64) *matrix.Matrix {
	t.Helper()
	m := matrix.New(dt, 32, 32)
	p.Apply(m, rng.Derive(seed, "A"))
	return m
}

func TestGaussianPattern(t *testing.T) {
	p := Gaussian(5, 2)
	m := fill(t, p, matrix.FP32, 1)
	mean, std := m.ValueStats()
	if math.Abs(mean-5) > 0.3 || math.Abs(std-2) > 0.3 {
		t.Errorf("gaussian pattern stats: mean=%v std=%v", mean, std)
	}
	if !strings.Contains(p.Name, "gaussian") {
		t.Error("name should mention gaussian")
	}
}

func TestGaussianDefaultUsesDTypeStd(t *testing.T) {
	p := GaussianDefault()
	fp := fill(t, p, matrix.FP32, 2)
	i8 := fill(t, p, matrix.INT8, 2)
	_, stdFP := fp.ValueStats()
	_, stdI8 := i8.ValueStats()
	if math.Abs(stdFP-210) > 20 {
		t.Errorf("FP default std = %v, want ≈210", stdFP)
	}
	// INT8 saturates at ±127, so the observed std is compressed below
	// 25... no: σ=25 keeps most mass within range; expect ≈25.
	if math.Abs(stdI8-25) > 4 {
		t.Errorf("INT8 default std = %v, want ≈25", stdI8)
	}
}

func TestConstantRandomDiffersByStream(t *testing.T) {
	p := ConstantRandom(0, 210)
	a := matrix.New(matrix.FP16, 8, 8)
	b := matrix.New(matrix.FP16, 8, 8)
	p.Apply(a, rng.Derive(7, "A"))
	p.Apply(b, rng.Derive(7, "B"))
	// Each matrix is internally constant.
	for i := range a.Bits {
		if a.Bits[i] != a.Bits[0] || b.Bits[i] != b.Bits[0] {
			t.Fatal("ConstantRandom should fill uniformly")
		}
	}
	// A and B hold different values (different streams).
	if a.Bits[0] == b.Bits[0] {
		t.Error("A and B streams should draw different constants")
	}
}

func TestFromSetPattern(t *testing.T) {
	p := FromSet(4, 0, 210)
	m := fill(t, p, matrix.FP32, 3)
	distinct := map[uint32]bool{}
	for _, b := range m.Bits {
		distinct[b] = true
	}
	if len(distinct) > 4 {
		t.Errorf("set(4) produced %d distinct values", len(distinct))
	}
}

func TestThenComposition(t *testing.T) {
	p := Gaussian(0, 210).Sparse(0.5)
	m := fill(t, p, matrix.FP32, 4)
	nz := m.NonZeroFraction()
	if math.Abs(nz-0.5) > 0.05 {
		t.Errorf("sparse composition: non-zero frac = %v", nz)
	}
	if !strings.Contains(p.Name, "sparsify") {
		t.Errorf("composed name = %q", p.Name)
	}
}

func TestSortedKinds(t *testing.T) {
	for _, kind := range []SortKind{SortRows, SortCols, SortWithinRows} {
		p := Gaussian(0, 210).Sorted(kind, 1)
		m := fill(t, p, matrix.FP32, 5)
		// All sorts reduce adjacent-row toggling versus random.
		random := fill(t, Gaussian(0, 210), matrix.FP32, 5)
		if m.MeanRowToggle() >= random.MeanRowToggle() {
			t.Errorf("%s: sorted toggle %v should be below random %v",
				kind, m.MeanRowToggle(), random.MeanRowToggle())
		}
	}
}

func TestSortedPanicsOnBadKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := Gaussian(0, 1).Sorted(SortKind("bogus"), 1)
	p.Apply(matrix.New(matrix.FP32, 2, 2), rng.New(1))
}

func TestBitTransforms(t *testing.T) {
	base := ConstantRandom(0, 210)
	flipped := fill(t, base.BitFlips(0.5), matrix.FP16, 6)
	constant := fill(t, base, matrix.FP16, 6)
	if flipped.Equal(constant) {
		t.Error("bit flips should change the matrix")
	}
	zl := fill(t, Gaussian(0, 210).ZeroLSBs(8), matrix.FP16, 7)
	for _, b := range zl.Bits {
		if b&0xFF != 0 {
			t.Fatal("zerolsb(8) left low bits set")
		}
	}
	zm := fill(t, Gaussian(0, 210).ZeroMSBs(8), matrix.FP16, 8)
	for _, b := range zm.Bits {
		if b&0xFF00 != 0 {
			t.Fatal("zeromsb(8) left high bits set")
		}
	}
}

func TestDSLRoundTrips(t *testing.T) {
	cases := []string{
		"gaussian(mean=0, std=210)",
		"gaussian(default)",
		"gaussian(0, 210) | sort(rows, 50%)",
		"gaussian(default) | sparsify(30%)",
		"constant(42)",
		"constant(random) | randlsb(4)",
		"set(n=8, mean=0, std=210)",
		"uniform(-1, 1)",
		"gaussian(default) | sort(withinrows, 100%) | sparsify(10%)",
		"constant(random, mean=5, std=1) | flip(0.25)",
		"gaussian(default) | zerolsb(6)",
		"gaussian(default) | zeromsb(2) | randmsb(1)",
	}
	for _, input := range cases {
		p, err := Parse(input)
		if err != nil {
			t.Errorf("Parse(%q): %v", input, err)
			continue
		}
		m := matrix.New(matrix.FP16, 16, 16)
		p.Apply(m, rng.New(1))
	}
}

func TestDSLSemantics(t *testing.T) {
	p := MustParse("gaussian(mean=0, std=210) | sparsify(40%)")
	m := fill(t, p, matrix.FP32, 9)
	if nz := m.NonZeroFraction(); math.Abs(nz-0.6) > 0.06 {
		t.Errorf("DSL sparsify(40%%): non-zero frac %v, want ≈0.6", nz)
	}

	c := MustParse("constant(7)")
	mc := fill(t, c, matrix.INT8, 10)
	for i := range mc.Bits {
		if mc.Value(0, 0) != 7 {
			t.Fatal("constant(7) wrong")
		}
		_ = i
	}

	srt := MustParse("gaussian(default) | sort(rows, 100%)")
	ms := fill(t, srt, matrix.FP32, 11)
	vals := ms.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatal("DSL full sort not ascending")
		}
	}
}

func TestDSLMatchesBuilders(t *testing.T) {
	// The DSL and the builder API must produce identical matrices for
	// the same seed.
	viaDSL := MustParse("gaussian(mean=0, std=210) | sort(rows, 50%) | sparsify(30%)")
	viaAPI := Gaussian(0, 210).Sorted(SortRows, 0.5).Sparse(0.3)
	a := matrix.New(matrix.FP16, 24, 24)
	b := matrix.New(matrix.FP16, 24, 24)
	viaDSL.Apply(a, rng.New(42))
	viaAPI.Apply(b, rng.New(42))
	if !a.Equal(b) {
		t.Error("DSL and builder disagree for identical pipelines")
	}
}

func TestDSLErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus(1)",
		"gaussian(std=oops)",
		"gaussian(default) | sort(diagonal, 50%)",
		"gaussian(default) | sparsify(150%)",
		"gaussian(default) | flip(2)",
		"gaussian(default) | sparsify", // missing required arg
		"gaussian(mean=1",              // unbalanced parens
		"constant()",                   // missing value
		"set(mean=0)",                  // missing n
		"uniform(5, 1)",                // hi <= lo
		"gaussian(default) | randlsb(-1)",
		"gaussian(default) | wat(3)",
		"gaussian(default) | sort(rows, 200%)",
		"(5)",
		"gaussian(default) | sparsify(=)",
	}
	for _, input := range cases {
		if _, err := Parse(input); err == nil {
			t.Errorf("Parse(%q): expected error", input)
		}
	}
}

// TestDSLRejectsNonFinite covers non-finite numbers, for which every
// range check is false when they are NaN. Accepted, a NaN sort or
// sparsity fraction becomes a negative element count that panics the
// serving process, and NaN distribution parameters fill the operands
// with NaNs.
func TestDSLRejectsNonFinite(t *testing.T) {
	cases := []string{
		"gaussian(default) | sort(rows, NaN)",
		"gaussian(default) | sort(rows, nan%)",
		"gaussian(default) | sort(cols, frac=Inf)",
		"gaussian(default) | sparsify(NaN)",
		"gaussian(default) | flip(NaN)",
		"gaussian(default) | zerolsb(NaN)",
		"set(n=NaN)",
		"set(n=1e19)",
		"set(n=4294967296)",
		"gaussian(mean=0, std=NaN)",
		"gaussian(mean=-Inf)",
		"uniform(lo=NaN, hi=1)",
		"uniform(0, +Inf)",
		"constant(inf)",
		"constant(random, mean=NaN)",
	}
	for _, input := range cases {
		_, err := Parse(input)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q) = %v, want *ParseError", input, err)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("nope")
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Parse("gaussian(default) | sort(diagonal)")
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "sort") {
		t.Errorf("error should name the failing stage: %q", msg)
	}
}

func TestUniformPattern(t *testing.T) {
	p := Uniform(-2, 2)
	m := fill(t, p, matrix.FP32, 12)
	for _, v := range m.Values() {
		if v < -2 || v > 2 {
			t.Fatalf("uniform value out of range: %v", v)
		}
	}
}

func TestPercentSuffix(t *testing.T) {
	a := MustParse("gaussian(default) | sparsify(25%)")
	b := MustParse("gaussian(default) | sparsify(0.25)")
	ma := fill(t, a, matrix.FP32, 13)
	mb := fill(t, b, matrix.FP32, 13)
	if !ma.Equal(mb) {
		t.Error("25%% and 0.25 should be equivalent")
	}
}

func TestPatternNamesRoundTripThroughDSL(t *testing.T) {
	// Every builder-constructed pattern prints a Name that the DSL
	// parses back into an equivalent pipeline.
	pats := []Pattern{
		Gaussian(0, 210),
		GaussianDefault(),
		Uniform(-3, 3),
		FromSet(8, 0, 210),
		Constant(42),
		Gaussian(0, 210).Sorted(SortRows, 0.5),
		Gaussian(0, 210).Sorted(SortCols, 1),
		Gaussian(0, 210).Sorted(SortWithinRows, 0.25),
		Gaussian(0, 210).Sparse(0.3),
		ConstantRandom(0, 210).BitFlips(0.25),
		ConstantRandom(0, 210).RandomLSBs(4),
		ConstantRandom(0, 210).RandomMSBs(3),
		Gaussian(0, 210).ZeroLSBs(6),
		Gaussian(0, 210).ZeroMSBs(2),
		Gaussian(5, 1).Sorted(SortRows, 0.75).Sparse(0.1).ZeroLSBs(2),
	}
	for _, p := range pats {
		parsed, err := Parse(p.Name)
		if err != nil {
			t.Errorf("Parse(%q): %v", p.Name, err)
			continue
		}
		a := matrix.New(matrix.FP16, 16, 16)
		b := matrix.New(matrix.FP16, 16, 16)
		p.Apply(a, rng.New(77))
		parsed.Apply(b, rng.New(77))
		if !a.Equal(b) {
			t.Errorf("pattern %q: DSL round trip produced different matrix", p.Name)
		}
	}
}

func TestCanonicalize(t *testing.T) {
	// Spellings that differ in whitespace, case and argument style must
	// canonicalize identically (the cache-key property).
	spellings := []string{
		"gaussian(mean=0,std=210)|sort(rows,50%)",
		"  Gaussian( mean=0 , std=210 ) | SORT( rows , frac=0.5 )  ",
	}
	var names []string
	for _, s := range spellings {
		name, err := Canonicalize(s)
		if err != nil {
			t.Fatalf("Canonicalize(%q): %v", s, err)
		}
		names = append(names, name)
	}
	if names[0] != names[1] {
		t.Errorf("canonical forms differ: %q vs %q", names[0], names[1])
	}
	// Canonical output is a fixed point.
	again, err := Canonicalize(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if again != names[0] {
		t.Errorf("canonical form not idempotent: %q vs %q", again, names[0])
	}
	if _, err := Canonicalize("bogus(1)"); err == nil {
		t.Error("expected error for unknown pattern")
	}
}
