package kernels

import (
	"fmt"
	"testing"

	"repro/internal/matrix"
	"repro/internal/rng"
)

// TestTransposedStorageBitIdentical checks that a Problem carrying B as
// its transpose (BTransposed) computes the exact bits of the same
// Problem with a materialized transpose, across dtypes, non-square
// shapes, and raw NaN/Inf/subnormal bit patterns, for both Run and
// Reference.
func TestTransposedStorageBitIdentical(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 33, 9}, {65, 130, 66}}
	for _, dt := range matrix.ExtendedDTypes {
		for si, sh := range shapes {
			n, k, m := sh[0], sh[1], sh[2]
			seed := uint64(si*100) + uint64(dt) + 7

			a := matrix.New(dt, n, k)
			g := matrix.New(dt, m, k) // stores Bᵀ: row j is operand column j
			matrix.FillGaussian(a, rng.Derive(seed, "A"), 0, matrix.DefaultStd(dt))
			fillRawBits(g, rng.Derive(seed, "Graw"))

			pt := NewTransposedProblem(dt, a, g)
			pm := NewProblem(dt, a, g.Transpose())

			if gn, gk, gm := pt.Dims(); gn != n || gk != k || gm != m {
				t.Fatalf("%v: transposed Dims = (%d,%d,%d), want (%d,%d,%d)", dt, gn, gk, gm, n, k, m)
			}
			got, err := Run(pt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(pm)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, dt.String()+" transposed-storage", got, want)

			assertBitIdentical(t, dt.String()+" transposed-reference", Reference(pt), Reference(pm))
		}
	}
}

// FuzzRunMatchesGolden holds Run to goldenRun, the row-at-a-time port,
// and Reference to a direct Value()-based float64 reduction. A case
// picks any datatype; n, k and m from 1 to 40, which reaches every
// 4-row, 2-row and k×4 tail of the lane kernels; raw or Gaussian
// operands; normal or transposed B storage; and the paper's epilogue,
// or α 0.5 and β −2 with a C matrix. goldenRun reads B as stored, so a
// transposed-storage case is compared against the golden run of its
// materialized transpose.
func FuzzRunMatchesGolden(f *testing.F) {
	f.Fuzz(func(t *testing.T, dtIdx, n, k, m uint8, gaussian, transposed, alphaBeta bool, seed uint64) {
		dt := matrix.ExtendedDTypes[int(dtIdx)%len(matrix.ExtendedDTypes)]
		dim := func(b uint8) int { return 1 + int(b-1)%40 }
		rows, inner, cols := dim(n), dim(k), dim(m)
		fill := func(mt *matrix.Matrix, side string) {
			src := rng.Derive(seed, side)
			if gaussian {
				matrix.FillGaussian(mt, src, 0, matrix.DefaultStd(dt))
			} else {
				fillRawBits(mt, src)
			}
		}
		a := matrix.New(dt, rows, inner)
		fill(a, "A")
		var p, pm *Problem
		if transposed {
			g := matrix.New(dt, cols, inner)
			fill(g, "B")
			p, pm = NewTransposedProblem(dt, a, g), NewProblem(dt, a, g.Transpose())
		} else {
			b := matrix.New(dt, inner, cols)
			fill(b, "B")
			p = NewProblem(dt, a, b)
			pm = p
		}
		if alphaBeta {
			c := matrix.New(dt, rows, cols)
			matrix.FillGaussian(c, rng.Derive(seed, "C"), 0, 1)
			for _, q := range []*Problem{p, pm} {
				q.C, q.Alpha, q.Beta = c, 0.5, -2
			}
		}
		label := fmt.Sprintf("%v %dx%dx%d gaussian=%v transposed=%v alphabeta=%v seed %#x",
			dt, rows, inner, cols, gaussian, transposed, alphaBeta, seed)

		got, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, label+" run", got, goldenRun(pm))

		want := &Output{Rows: rows, Cols: cols, Vals: make([]float64, rows*cols)}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				var acc float64
				for kk := 0; kk < inner; kk++ {
					acc += pm.A.Value(i, kk) * pm.B.Value(kk, j)
				}
				want.Vals[i*cols+j] = pm.Alpha*acc + pm.Beta*cVal(pm, i, j)
			}
		}
		assertBitIdentical(t, label+" reference", Reference(p), want)
	})
}
