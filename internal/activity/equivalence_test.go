package activity

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/rng"
)

// Property tests pinning the incremental fast paths to the full
// reference computations, byte-for-byte on every field:
//
//   - DeltaRowScan/DeltaColScan ≡ ScanA/ScanB after a tracked
//     transform chain, across dtypes × chains × seeds.
//   - AnalyzeWithStats fed precomputed operand stats ≡ the full-rescan
//     Analyze, on every Report field, for both storage orientations.
//
// Generation that adds rows to the stats as it encodes them
// (OperandStats.AddRow) is held to BaseFill followed by ScanA by the
// experiments package's FuzzGenerateMatchesBaseFill.
//
// The full-rescan path is not legacy: it stays the selectable
// reference (AnalyzeWithStats with nil stats takes it), and these
// tests are what entitle the engine to skip it on hot paths.

// statsEqual fails the test unless the two operand stats agree exactly
// on every field.
func statsEqual(t *testing.T, ctx string, got, want *OperandStats) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil stats (got %v, want %v)", ctx, got, want)
	}
	if got.Toggles != want.Toggles {
		t.Errorf("%s: Toggles = %d, want %d", ctx, got.Toggles, want.Toggles)
	}
	if got.Hamming != want.Hamming {
		t.Errorf("%s: Hamming = %d, want %d", ctx, got.Hamming, want.Hamming)
	}
	if got.NonZero != want.NonZero {
		t.Errorf("%s: NonZero = %d, want %d", ctx, got.NonZero, want.NonZero)
	}
	if !reflect.DeepEqual(got.Sig, want.Sig) {
		t.Errorf("%s: per-column Sig sums differ", ctx)
	}
}

// TestDeltaScanEquivalence: applying a tracked transform chain to a
// clone and patching the base's stats by the touched positions must
// reproduce the full rescan of the transformed matrix exactly — in
// both stream orientations — and the tracked application itself must
// leave bits identical to the plain Transform (same RNG stream).
func TestDeltaScanEquivalence(t *testing.T) {
	chains := []struct {
		name string
		pat  func() patterns.Pattern
	}{
		{"flips", func() patterns.Pattern { return patterns.GaussianDefault().BitFlips(0.002) }},
		{"sparse", func() patterns.Pattern { return patterns.GaussianDefault().Sparse(0.05) }},
		{"flips|sparse", func() patterns.Pattern {
			return patterns.Gaussian(3, 7).BitFlips(0.001).Sparse(0.02)
		}},
		{"set|flips", func() patterns.Pattern {
			return patterns.FromSet(16, 0, 210).BitFlips(0.002)
		}},
	}
	const rows, cols = 48, 32
	for _, dt := range matrix.ExtendedDTypes {
		for _, ch := range chains {
			for seed := uint64(1); seed <= 3; seed++ {
				ctx := fmt.Sprintf("%v/%s/seed%d", dt, ch.name, seed)
				pat := ch.pat()
				base := matrix.New(dt, rows, cols)
				pat.BaseFill(base, rng.Derive(seed, "base"))

				cur := base.Clone()
				touched, ok := pat.DeltaTransform(cur, rng.Derive(seed, "x"))
				if !ok {
					t.Fatalf("%s: chain unexpectedly untrackable", ctx)
				}
				ref := base.Clone()
				pat.Transform(ref, rng.Derive(seed, "x"))
				if !reflect.DeepEqual(cur.Bits, ref.Bits) {
					t.Fatalf("%s: tracked transform diverges from plain transform", ctx)
				}

				rowSt := ScanA(base).DeltaRowScan(base, cur, touched)
				if rowSt == nil {
					t.Fatalf("%s: dense fallback triggered (%d touches)", ctx, len(touched))
				}
				statsEqual(t, ctx+"/row", rowSt, ScanA(cur))

				colSt := ScanB(base).DeltaColScan(base, cur, touched)
				if colSt == nil {
					t.Fatalf("%s: dense fallback triggered (%d touches)", ctx, len(touched))
				}
				statsEqual(t, ctx+"/col", colSt, ScanB(cur))
			}
		}
	}
}

// TestDeltaScanDenseFallback: a touch set dense enough that patching
// would cost more than rescanning must return nil so the caller takes
// the retained full-rescan path.
func TestDeltaScanDenseFallback(t *testing.T) {
	m := matrix.New(matrix.FP32, 8, 8)
	touched := make([]int32, len(m.Bits))
	for i := range touched {
		touched[i] = int32(i)
	}
	if ScanA(m).DeltaRowScan(m, m, touched) != nil {
		t.Error("DeltaRowScan must decline dense touch sets")
	}
	if ScanB(m).DeltaColScan(m, m, touched) != nil {
		t.Error("DeltaColScan must decline dense touch sets")
	}
}

// TestAnalyzeWithStatsEquivalence: an analysis fed precomputed operand
// stats (the experiments engine's incremental path) must produce a
// Report identical on every field to the full-rescan analysis, for
// both B storage orientations.
func TestAnalyzeWithStatsEquivalence(t *testing.T) {
	const n = 48
	cfg := Config{SampleOutputs: 32, Seed: 0xAC71}
	for _, dt := range matrix.ExtendedDTypes {
		a := matrix.New(dt, n, n)
		g := matrix.New(dt, n, n)
		matrix.FillGaussian(a, rng.Derive(7, "A"), 0, matrix.DefaultStd(dt))
		matrix.FillGaussian(g, rng.Derive(7, "B"), 0, matrix.DefaultStd(dt))
		for _, transposed := range []bool{false, true} {
			ctx := fmt.Sprintf("%v/transposed=%v", dt, transposed)
			prob := kernels.NewProblem(dt, a, g)
			stB := ScanB(g)
			if transposed {
				prob = kernels.NewTransposedProblem(dt, a, g)
				// Transposed storage streams B row-wise: the operand's
				// column-stream profile is the stored matrix's row scan.
				stB = ScanA(g)
			}
			want, err := AnalyzeWithStats(prob, cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AnalyzeWithStats(prob, cfg, ScanA(a), stB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Report differs:\n got %+v\nwant %+v", ctx, got, want)
			}
		}
	}
}
