package matrix

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDTypeWidths(t *testing.T) {
	if FP32.Width() != 32 || FP16.Width() != 16 || FP16T.Width() != 16 || INT8.Width() != 8 {
		t.Error("unexpected dtype widths")
	}
}

func TestDTypeStrings(t *testing.T) {
	want := map[DType]string{FP32: "FP32", FP16: "FP16", FP16T: "FP16-T", INT8: "INT8"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// Values representable in each dtype must round trip.
	for _, d := range DTypes {
		for _, v := range []float64{0, 1, -1, 2, -2, 64, -64, 100} {
			got := d.Decode(d.Encode(v))
			if got != v {
				t.Errorf("%v: Encode/Decode(%v) = %v", d, v, got)
			}
		}
	}
}

func TestEncodeRounds(t *testing.T) {
	// FP16 rounds to nearest: 1 + 2^-12 rounds to 1.
	if FP16.Decode(FP16.Encode(1+math.Pow(2, -12))) != 1 {
		t.Error("FP16 should round 1+2^-12 to 1")
	}
	// INT8 saturates.
	if INT8.Decode(INT8.Encode(1000)) != 127 {
		t.Error("INT8 should saturate at 127")
	}
	if INT8.Decode(INT8.Encode(-1000)) != -128 {
		t.Error("INT8 should saturate at -128")
	}
}

func TestNewAndAccessors(t *testing.T) {
	m := New(FP32, 3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Bits) != 12 {
		t.Fatal("bad shape")
	}
	m.SetValue(1, 2, 42)
	if m.Value(1, 2) != 42 {
		t.Error("SetValue/Value mismatch")
	}
	if m.At(1, 2) != FP32.Encode(42) {
		t.Error("At should return encoded bits")
	}
	if m.Value(0, 0) != 0 {
		t.Error("fresh matrix should be zero")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(FP32, 0, 4)
}

func TestTranspose(t *testing.T) {
	m := New(INT8, 2, 3)
	vals := [][]float64{{1, 2, 3}, {4, 5, 6}}
	for i := range vals {
		for j := range vals[i] {
			m.SetValue(i, j, vals[i][j])
		}
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatal("bad transpose shape")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if tr.Value(j, i) != vals[i][j] {
				t.Errorf("transpose mismatch at (%d,%d)", j, i)
			}
		}
	}
	// Double transpose is identity.
	if !tr.Transpose().Equal(m) {
		t.Error("double transpose should equal original")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(FP16, 2, 2)
	m.SetValue(0, 0, 5)
	c := m.Clone()
	c.SetValue(0, 0, 9)
	if m.Value(0, 0) != 5 {
		t.Error("clone mutation leaked into original")
	}
	if !m.Clone().Equal(m) {
		t.Error("clone should equal original")
	}
}

func TestEqual(t *testing.T) {
	a := New(FP32, 2, 2)
	b := New(FP32, 2, 2)
	if !a.Equal(b) {
		t.Error("zero matrices should be equal")
	}
	b.SetValue(1, 1, 1)
	if a.Equal(b) {
		t.Error("different content should not be equal")
	}
	c := New(FP16, 2, 2)
	if a.Equal(c) {
		t.Error("different dtype should not be equal")
	}
	d := New(FP32, 4, 1)
	if a.Equal(d) {
		t.Error("different shape should not be equal")
	}
}

func TestFillGaussianMoments(t *testing.T) {
	m := New(FP32, 128, 128)
	FillGaussian(m, rng.New(1), 10, 3)
	mean, std := m.ValueStats()
	if math.Abs(mean-10) > 0.2 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if math.Abs(std-3) > 0.2 {
		t.Errorf("std = %v, want ~3", std)
	}
}

func TestFillGaussianDeterministic(t *testing.T) {
	a := New(FP16, 16, 16)
	b := New(FP16, 16, 16)
	FillGaussian(a, rng.New(7), 0, 210)
	FillGaussian(b, rng.New(7), 0, 210)
	if !a.Equal(b) {
		t.Error("same seed should produce identical matrices")
	}
	FillGaussian(b, rng.New(8), 0, 210)
	if a.Equal(b) {
		t.Error("different seeds should differ")
	}
}

func TestFillConstant(t *testing.T) {
	m := New(INT8, 4, 4)
	FillConstant(m, 7)
	for i := range m.Bits {
		if m.DType.Decode(m.Bits[i]) != 7 {
			t.Fatal("constant fill failed")
		}
	}
}

func TestFillFromSet(t *testing.T) {
	m := New(FP32, 64, 64)
	set := []float64{1, 2, 4}
	FillFromSet(m, rng.New(3), set)
	seen := map[float64]int{}
	for _, v := range m.Values() {
		seen[v]++
	}
	if len(seen) != 3 {
		t.Fatalf("expected exactly 3 distinct values, got %d", len(seen))
	}
	for _, v := range set {
		if seen[v] == 0 {
			t.Errorf("value %v never drawn", v)
		}
	}
}

func TestFillFromSetEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FillFromSet(New(FP32, 2, 2), rng.New(1), nil)
}

func TestGaussianSet(t *testing.T) {
	set := GaussianSet(rng.New(5), 16, 0, 210)
	if len(set) != 16 {
		t.Fatal("wrong set size")
	}
	distinct := map[float64]bool{}
	for _, v := range set {
		distinct[v] = true
	}
	if len(distinct) < 15 {
		t.Error("Gaussian set values should be almost surely distinct")
	}
}

func TestFillUniform(t *testing.T) {
	m := New(FP32, 32, 32)
	FillUniform(m, rng.New(2), -5, 5)
	for _, v := range m.Values() {
		if v < -5 || v >= 5.001 {
			t.Fatalf("uniform value out of range: %v", v)
		}
	}
}

func TestDefaultStd(t *testing.T) {
	if DefaultStd(FP32) != 210 || DefaultStd(FP16) != 210 || DefaultStd(FP16T) != 210 {
		t.Error("FP default std should be 210")
	}
	if DefaultStd(INT8) != 25 {
		t.Error("INT8 default std should be 25")
	}
}

// sortedPrefixLen returns the length of the longest ascending prefix of
// the row-major decoded values.
func sortedPrefixLen(m *Matrix) int {
	vals := m.Values()
	n := 1
	for n < len(vals) && vals[n] >= vals[n-1] {
		n++
	}
	return n
}

func TestSortIntoRowsFull(t *testing.T) {
	m := New(FP32, 16, 16)
	FillGaussian(m, rng.New(1), 0, 210)
	before := append([]float64(nil), m.Values()...)
	PartialSort(m, IntoRows, 1)
	after := m.Values()
	if !sort.Float64sAreSorted(after) {
		t.Error("full sort should produce ascending row-major order")
	}
	// Multiset of values preserved.
	sort.Float64s(before)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("sorting changed the value multiset")
		}
	}
}

func TestSortIntoRowsPartial(t *testing.T) {
	m := New(FP32, 16, 16)
	FillGaussian(m, rng.New(2), 0, 210)
	orig := m.Clone()
	PartialSort(m, IntoRows, 0.5)
	n := len(m.Bits)
	k := n / 2
	// First half must be ascending.
	vals := m.Values()
	for i := 1; i < k; i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("first %d values not sorted at %d", k, i)
		}
	}
	// First half must be exactly the k smallest values.
	all := append([]float64(nil), orig.Values()...)
	sort.Float64s(all)
	maxOfLow := all[k-1]
	for i := 0; i < k; i++ {
		if vals[i] > maxOfLow {
			t.Fatalf("value %v at position %d exceeds k-th smallest %v", vals[i], i, maxOfLow)
		}
	}
	// Multiset preserved.
	got := append([]float64(nil), vals...)
	sort.Float64s(got)
	for i := range all {
		if got[i] != all[i] {
			t.Fatal("partial sort changed the value multiset")
		}
	}
}

func TestSortIntoRowsZeroIsNoop(t *testing.T) {
	m := New(FP16, 8, 8)
	FillGaussian(m, rng.New(3), 0, 210)
	orig := m.Clone()
	PartialSort(m, IntoRows, 0)
	if !m.Equal(orig) {
		t.Error("frac=0 should be a no-op")
	}
}

func TestSortIntoCols(t *testing.T) {
	m := New(FP32, 8, 8)
	FillGaussian(m, rng.New(4), 0, 210)
	PartialSort(m, IntoCols, 1)
	// Column-major walk must be ascending.
	prev := math.Inf(-1)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			v := m.Value(i, j)
			if v < prev {
				t.Fatalf("column-major order not ascending at (%d,%d)", i, j)
			}
			prev = v
		}
	}
}

func TestSortWithinRows(t *testing.T) {
	m := New(FP32, 8, 32)
	FillGaussian(m, rng.New(5), 0, 210)
	rowSets := make([][]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		vals := make([]float64, m.Cols)
		for j := 0; j < m.Cols; j++ {
			vals[j] = m.Value(i, j)
		}
		sort.Float64s(vals)
		rowSets[i] = vals
	}
	PartialSort(m, WithinRows, 1)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.Value(i, j) != rowSets[i][j] {
				t.Fatalf("row %d not independently sorted", i)
			}
		}
	}
}

func TestSortWithinRowsPartialKeepsRows(t *testing.T) {
	m := New(FP32, 4, 16)
	FillGaussian(m, rng.New(6), 0, 210)
	rowMultisets := make([][]float64, m.Rows)
	for i := range rowMultisets {
		vals := make([]float64, m.Cols)
		for j := 0; j < m.Cols; j++ {
			vals[j] = m.Value(i, j)
		}
		sort.Float64s(vals)
		rowMultisets[i] = vals
	}
	PartialSort(m, WithinRows, 0.5)
	for i := 0; i < m.Rows; i++ {
		vals := make([]float64, m.Cols)
		for j := 0; j < m.Cols; j++ {
			vals[j] = m.Value(i, j)
		}
		sort.Float64s(vals)
		for j := range vals {
			if vals[j] != rowMultisets[i][j] {
				t.Fatalf("row %d multiset changed", i)
			}
		}
	}
}

func TestSparsify(t *testing.T) {
	m := New(FP32, 32, 32)
	FillGaussian(m, rng.New(7), 100, 1) // values far from zero
	Sparsify(m, rng.New(8), 0.25)
	nz := m.NonZeroFraction()
	if math.Abs(nz-0.75) > 0.01 {
		t.Errorf("non-zero fraction = %v, want ~0.75", nz)
	}
	Sparsify(m, rng.New(9), 1)
	if m.NonZeroFraction() != 0 {
		t.Error("full sparsify should zero everything")
	}
}

func TestSparsifyZeroNoop(t *testing.T) {
	m := New(INT8, 8, 8)
	FillConstant(m, 3)
	Sparsify(m, rng.New(1), 0)
	if m.NonZeroFraction() != 1 {
		t.Error("frac=0 sparsify should be a no-op")
	}
}

func TestRandomBitFlips(t *testing.T) {
	m := New(FP16, 32, 32)
	FillConstant(m, 42)
	orig := m.Clone()
	RandomBitFlips(m, rng.New(1), 0)
	if !m.Equal(orig) {
		t.Error("p=0 should not flip anything")
	}
	RandomBitFlips(m, rng.New(2), 0.5)
	if m.Equal(orig) {
		t.Error("p=0.5 should flip bits")
	}
	// Flip probability should be near 0.5 per bit.
	var flips, total int
	for i := range m.Bits {
		flips += popcount(m.Bits[i] ^ orig.Bits[i])
		total += 16
	}
	frac := float64(flips) / float64(total)
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("flip fraction = %v, want ~0.5", frac)
	}
}

func popcount(v uint32) int {
	n := 0
	for v != 0 {
		n += int(v & 1)
		v >>= 1
	}
	return n
}

func TestRandomizeLSBs(t *testing.T) {
	m := New(FP16, 16, 16)
	FillConstant(m, 42)
	base := m.At(0, 0)
	RandomizeLSBs(m, rng.New(3), 4)
	for i := range m.Bits {
		if m.Bits[i]&^0xF != base&^0xF {
			t.Fatal("bits above the randomized LSBs changed")
		}
	}
	// With 256 elements and 4 random bits, nearly all patterns appear.
	seen := map[uint32]bool{}
	for i := range m.Bits {
		seen[m.Bits[i]&0xF] = true
	}
	if len(seen) < 12 {
		t.Errorf("only %d of 16 LSB patterns seen", len(seen))
	}
}

func TestRandomizeMSBs(t *testing.T) {
	m := New(INT8, 16, 16)
	FillConstant(m, 42)
	base := m.At(0, 0)
	RandomizeMSBs(m, rng.New(4), 3)
	lowMask := uint32(0x1F) // 8-3 = 5 low bits preserved
	for i := range m.Bits {
		if m.Bits[i]&lowMask != base&lowMask {
			t.Fatal("bits below the randomized MSBs changed")
		}
		if m.Bits[i]>>8 != 0 {
			t.Fatal("randomization leaked above dtype width")
		}
	}
}

func TestZeroLSBs(t *testing.T) {
	m := New(FP16, 8, 8)
	FillConstantBits(m, 0xFFFF)
	ZeroLSBs(m, 6)
	for i := range m.Bits {
		if m.Bits[i] != 0xFFC0 {
			t.Fatalf("ZeroLSBs result %#x, want 0xFFC0", m.Bits[i])
		}
	}
	ZeroLSBs(m, 100) // clamps to width
	if m.Bits[0] != 0 {
		t.Error("ZeroLSBs beyond width should clear the lane")
	}
}

func TestZeroMSBs(t *testing.T) {
	m := New(FP16, 8, 8)
	FillConstantBits(m, 0xFFFF)
	ZeroMSBs(m, 6)
	for i := range m.Bits {
		if m.Bits[i] != 0x03FF {
			t.Fatalf("ZeroMSBs result %#x, want 0x03FF", m.Bits[i])
		}
	}
}

func TestZero(t *testing.T) {
	m := New(FP32, 4, 4)
	FillGaussian(m, rng.New(1), 0, 210)
	Zero(m)
	if m.NonZeroFraction() != 0 {
		t.Error("Zero should clear the matrix")
	}
}

func TestMeanHammingWeight(t *testing.T) {
	m := New(FP16, 4, 4)
	FillConstantBits(m, 0xFFFF)
	if m.MeanHammingWeight() != 16 {
		t.Error("all-ones FP16 should have HW 16")
	}
	Zero(m)
	if m.MeanHammingWeight() != 0 {
		t.Error("zero matrix should have HW 0")
	}
}

func TestMeanRowToggle(t *testing.T) {
	m := New(FP16, 2, 8)
	FillConstant(m, 5)
	if m.MeanRowToggle() != 0 {
		t.Error("constant matrix should have zero row toggle")
	}
	// Alternating all-bits patterns toggle every lane.
	for i := 0; i < 2; i++ {
		for j := 0; j < 8; j++ {
			if j%2 == 0 {
				m.Set(i, j, 0x0000)
			} else {
				m.Set(i, j, 0xFFFF)
			}
		}
	}
	if got := m.MeanRowToggle(); got != 1 {
		t.Errorf("alternating matrix toggle = %v, want 1", got)
	}
}

func TestSortingReducesRowToggle(t *testing.T) {
	// The physical mechanism behind T8: sorting lowers adjacent-element
	// switching activity.
	m := New(FP16, 32, 32)
	FillGaussian(m, rng.New(11), 0, 210)
	before := m.MeanRowToggle()
	PartialSort(m, IntoRows, 1)
	after := m.MeanRowToggle()
	if after >= before {
		t.Errorf("sorting should reduce row toggle: before=%v after=%v", before, after)
	}
}

func TestTransposePreservesMultiset(t *testing.T) {
	f := func(seed uint64) bool {
		m := New(INT8, 5, 7)
		FillGaussian(m, rng.New(seed), 0, 25)
		tr := m.Transpose()
		a := append([]float64(nil), m.Values()...)
		b := append([]float64(nil), tr.Values()...)
		sort.Float64s(a)
		sort.Float64s(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNonZeroFraction(t *testing.T) {
	m := New(FP32, 2, 2)
	if m.NonZeroFraction() != 0 {
		t.Error("zero matrix should report 0")
	}
	m.SetValue(0, 0, 1)
	if m.NonZeroFraction() != 0.25 {
		t.Error("one of four should report 0.25")
	}
}

func TestParseDType(t *testing.T) {
	cases := []struct {
		in   string
		want DType
		ok   bool
	}{
		{"FP32", FP32, true},
		{"fp16", FP16, true},
		{"FP16-T", FP16T, true},
		{" fp16t ", FP16T, true},
		{"BF16", BF16T, true},
		{"bf16-t", BF16T, true},
		{"INT8", INT8, true},
		{"FP64", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseDType(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParseDType(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	// Round trip: every dtype's String parses back to itself.
	for _, dt := range ExtendedDTypes {
		got, ok := ParseDType(dt.String())
		if !ok || got != dt {
			t.Errorf("ParseDType(%q) = %v, %v; want %v", dt.String(), got, ok, dt)
		}
	}
}
