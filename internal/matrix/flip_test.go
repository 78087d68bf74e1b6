package matrix

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/rng"
)

// refGeometricFlips is the geometric path of RandomBitFlipsTouched as
// it was before the skip table: one math.Log per flip. It panics for
// p ≤ 2⁻⁵⁴, where 1-p rounds to 1.
func refGeometricFlips(m *Matrix, src *rng.Source, p float64) (touched []int32, ok bool) {
	width := m.DType.Width()
	track := DeltaDenseFrac*p*float64(width) <= 1
	total := len(m.Bits) * width
	shift := uint(bits.TrailingZeros(uint(width))) // widths are powers of two
	mask := width - 1
	lnq := math.Log(1 - p)
	pos := 0
	for {
		skip := math.Floor(math.Log(1-src.Float64()) / lnq)
		if skip >= float64(total-pos) {
			return touched, track
		}
		pos += int(skip)
		m.Bits[pos>>shift] ^= 1 << uint(pos&mask)
		if track {
			touched = append(touched, int32(pos>>shift))
		}
		pos++
		if pos >= total {
			return touched, track
		}
	}
}

// checkFlipsAgainstReference flips m at rate p (0 < p < ¼) under the
// skip table and under the reference from the same seed, and requires
// equal words, an equal touched list and ok, and an equal next draw.
// Where 1-p rounds to 1 the reference panics; there the flip must
// leave m and the stream untouched.
func checkFlipsAgainstReference(t *testing.T, m *Matrix, p float64, seed uint64) {
	t.Helper()
	ctx := fmt.Sprintf("%v %dx%d p=%g seed %#x", m.DType, m.Rows, m.Cols, p, seed)
	want := m.Clone()
	gotSrc, wantSrc := rng.New(seed), rng.New(seed)
	touched, ok := RandomBitFlipsTouched(m, gotSrc, p)
	var wantTouched []int32
	wantOK := true
	if 1-p != 1 {
		wantTouched, wantOK = refGeometricFlips(want, wantSrc, p)
	}
	if !m.Equal(want) {
		t.Fatalf("%s: words differ from the reference", ctx)
	}
	if ok != wantOK || !slices.Equal(touched, wantTouched) {
		t.Fatalf("%s: touched %d (ok %v), reference %d (ok %v)", ctx, len(touched), ok, len(wantTouched), wantOK)
	}
	if gotSrc.Uint64() != wantSrc.Uint64() {
		t.Fatalf("%s: next draw differs from the reference's", ctx)
	}
}

// FuzzBitFlipsMatchesReference holds the geometric flip path, whose
// skips mostly come from a per-call table, to the one-logarithm-per-
// flip reference: any p in (0, ¼), including p ≤ 2⁻⁵⁴ where the
// reference panics, every datatype, shapes from 1×1 to 48×48 and any
// seed. The matrix holds raw words, bits above the width included.
func FuzzBitFlipsMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, p float64, dt, rows, cols uint8, seed uint64) {
		if !(p > 0 && p < 0.25) {
			t.Skip("the geometric path serves 0 < p < ¼")
		}
		m := New(ExtendedDTypes[int(dt)%len(ExtendedDTypes)], 1+int(rows)%48, 1+int(cols)%48)
		src := rng.New(^seed)
		for i := range m.Bits {
			m.Bits[i] = src.Uint32()
		}
		checkFlipsAgainstReference(t, m, p, seed)
	})
}

// TestBitFlipsMatchesReferenceLarge covers what the fuzzer's small
// shapes cannot: 512² operands, whose calls build full 4096-bucket
// tables, at Fig. 4a's geometric rates and around the table's cutoffs.
func TestBitFlipsMatchesReferenceLarge(t *testing.T) {
	for _, dt := range []DType{FP32, FP16, INT8} {
		for _, p := range []float64{0.05, 0.1, 0.2, 0.2499, 1e-3, 1e-4} {
			m := New(dt, 512, 512)
			FillConstant(m, 1.5)
			checkFlipsAgainstReference(t, m, p, uint64(dt)+7)
		}
	}
}

// TestRandomBitFlipsTinyRate: for p ≤ 2⁻⁵⁴, 1-p rounds to 1 and the
// inversion formula divides by ln 1 = 0. Such a p flips nothing and
// draws nothing, on every path into the transform.
func TestRandomBitFlipsTinyRate(t *testing.T) {
	for _, p := range []float64{1e-17, 5e-17, 0x1p-54, math.SmallestNonzeroFloat64} {
		for _, dt := range ExtendedDTypes {
			m := New(dt, 7, 5)
			FillConstant(m, 3)
			want := m.Clone()
			src, fresh := rng.New(1), rng.New(1)
			touched, ok := RandomBitFlipsTouched(m, src, p)
			if !m.Equal(want) || touched != nil || !ok || src.Uint64() != fresh.Uint64() {
				t.Errorf("%v p=%g: flipped %d elements (ok %v) or drew from the stream, want nothing",
					dt, p, len(touched), ok)
			}
			RandomBitFlips(m, src, p)
			if !m.Equal(want) {
				t.Errorf("%v p=%g: RandomBitFlips changed the matrix", dt, p)
			}
		}
	}
	// Just above the cutoff, 1-p rounds below 1 and the formula holds.
	m := New(FP32, 7, 5)
	checkFlipsAgainstReference(t, m, 0x1p-54*1.5, 3)
}

// TestSkipTableMatchesFormula checks tabled buckets against geomSkip
// at both ends and the middle, and that a table is built exactly when
// the call expects enough draws at a high enough rate.
func TestSkipTableMatchesFormula(t *testing.T) {
	var tab skipTable
	for _, c := range []struct {
		p, draws float64
		buckets  int
	}{
		{0.05, 420_000, skipBuckets},
		{0.2, 1e9, skipBuckets},
		{0.05, 3300, 256}, // c = 12.8
		{0.2, 300, 32},    // c = 7.1
		{0.2, 200, 0},     // 16 buckets: c = 3.6
		{0.01, 1000, 0},   // 64 buckets: c = 0.64
		{0.05, 7, 0},      // no bucket to build
	} {
		lnq := math.Log(1 - c.p)
		skips, drop := tab.build(lnq, c.draws)
		n := len(skips)
		if c.buckets == 0 {
			if n != 1 || skips[0] != -1 || drop != 53 {
				t.Errorf("p=%g draws=%g: built %d buckets, want one without a skip", c.p, c.draws, n)
			}
			continue
		}
		if n != c.buckets {
			t.Errorf("p=%g draws=%g: %d buckets, want %d", c.p, c.draws, n, c.buckets)
			continue
		}
		tabled := 0
		for i, s := range skips {
			if s < 0 {
				continue
			}
			tabled++
			lo, hi := uint64(i)<<drop, uint64(i+1)<<drop-1
			for _, j := range []uint64{lo, lo + 1, (lo + hi) / 2, hi - 1, hi} {
				if got := geomSkip(j, lnq); got != float64(s) {
					t.Fatalf("p=%g bucket %d: table %d, geomSkip(%#x) = %v", c.p, i, s, j, got)
				}
			}
		}
		if tabled == 0 {
			t.Errorf("p=%g draws=%g: no bucket of %d tabled", c.p, c.draws, n)
		}
	}
}
