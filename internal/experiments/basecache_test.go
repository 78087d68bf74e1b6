package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/activity"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/rng"
)

// FuzzGenerateMatchesBaseFill holds the multi-class generation pass to
// its reference: for every encoding class, the matrix generateClasses
// builds must equal the pattern's BaseFill on the same stream bit for
// bit, and the statistics it adds row by row must equal
// activity.ScanA of that matrix; without statistics, the pass must
// build the same bits. kind picks Gaussian(mean, std), GaussianDefault
// or FromSet(1+setN%64, mean, std); classMask picks a non-empty set of
// classes; the shape runs from 1×1 to 24×40. The committed corpus
// keeps Gaussian cases at σ tiny and huge, which push FP16 into its
// subnormal and overflow conversion tails, and one whose mean and σ
// expose a double rounding in FP16's encode.
func FuzzGenerateMatchesBaseFill(f *testing.F) {
	// One datatype per encoding class (FP16-T stores as FP16).
	all := []matrix.DType{matrix.FP32, matrix.FP16, matrix.BF16T, matrix.INT8}
	f.Fuzz(func(t *testing.T, kind uint8, mean, std float64, setN, classMask, rows, cols uint8, seed uint64) {
		if math.IsNaN(mean) || math.IsInf(mean, 0) || math.IsNaN(std) || math.IsInf(std, 0) {
			t.Skip("mean and σ must be finite")
		}
		var pat patterns.Pattern
		switch kind % 3 {
		case 0:
			pat = patterns.Gaussian(mean, std)
		case 1:
			pat = patterns.GaussianDefault()
		default:
			pat = patterns.FromSet(1+int(setN%64), mean, std)
		}
		mask := classMask%15 + 1 // a non-empty subset of the four classes
		r, c := 1+int(rows%24), 1+int(cols%40)
		var ms []*matrix.Matrix
		for i, cl := range all {
			if mask&(1<<i) != 0 {
				m := matrix.New(cl, r, c)
				for j := range m.Bits {
					m.Bits[j] = 0xDEADBEEF // pooled storage holds stale words
				}
				ms = append(ms, m)
			}
		}
		sts := generateClasses(pat, rng.New(seed), ms, true)
		for i, m := range ms {
			ctx := fmt.Sprintf("%s %v %dx%d seed %#x", pat.Name, m.DType, r, c, seed)
			want := matrix.New(m.DType, r, c)
			pat.BaseFill(want, rng.New(seed))
			if !m.Equal(want) {
				t.Fatalf("%s: bits differ from BaseFill", ctx)
			}
			if wantSt := activity.ScanA(want); !reflect.DeepEqual(sts[i], wantSt) {
				t.Fatalf("%s: stats %+v, ScanA %+v", ctx, *sts[i], *wantSt)
			}
		}
		// Without statistics the pass builds the same bits.
		noScan := make([]*matrix.Matrix, len(ms))
		for i, m := range ms {
			noScan[i] = matrix.New(m.DType, r, c)
		}
		if sts := generateClasses(pat, rng.New(seed), noScan, false); sts != nil {
			t.Fatalf("%s: statistics built without scan", pat.Name)
		}
		for i, m := range noScan {
			if !m.Equal(ms[i]) {
				t.Fatalf("%s %v: bits without scan differ from the scanning pass", pat.Name, m.DType)
			}
		}
	})
}

// BenchmarkGenerate times one multi-class generation pass at 512², the
// base of one (side, seed) in a campaign Run: gaussian builds
// GaussianDefault for the three encoding classes of the paper's
// datatypes, and set builds Fig. 3c's largest value set for the two
// floating-point classes.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name    string
		pat     patterns.Pattern
		classes []matrix.DType
	}{
		{"gaussian", patterns.GaussianDefault(), []matrix.DType{matrix.FP32, matrix.FP16, matrix.INT8}},
		{"set", patterns.FromSet(1024, 0, 210), []matrix.DType{matrix.FP32, matrix.FP16}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ms := make([]*matrix.Matrix, len(c.classes))
			for i, cl := range c.classes {
				ms[i] = matrix.New(cl, 512, 512)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				generateClasses(c.pat, rng.New(1), ms, true)
			}
		})
	}
}
