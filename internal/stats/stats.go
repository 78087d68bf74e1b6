// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics with standard errors (the paper
// reports means with error bars over 10 seeds), Pearson correlation for
// the Fig. 8 bit-alignment/Hamming-weight analysis, and ordinary least
// squares for the input-dependent power predictor (§V).
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator), or 0
// for fewer than two observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean.
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Pearson returns the Pearson correlation coefficient between paired
// samples. It returns 0 when either sample has zero variance and panics
// on length mismatch.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ErrSingular is returned by MultiFit when the normal equations are
// singular (collinear features).
var ErrSingular = errors.New("stats: singular normal equations")

// MultiFit fits y = w·x (with x including any constant column the
// caller wants) by ordinary least squares via Gaussian elimination on
// the normal equations. rows is the design matrix, one feature vector
// per observation.
func MultiFit(rows [][]float64, ys []float64) ([]float64, error) {
	if len(rows) != len(ys) {
		panic("stats: MultiFit length mismatch")
	}
	if len(rows) == 0 {
		return nil, ErrSingular
	}
	k := len(rows[0])
	for _, r := range rows {
		if len(r) != k {
			panic("stats: ragged design matrix")
		}
	}
	// Normal equations: (XᵀX) w = Xᵀy.
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k+1)
	}
	for r, row := range rows {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xtx[i][k] += row[i] * ys[r]
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(xtx[r][col]) > math.Abs(xtx[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(xtx[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		xtx[col], xtx[pivot] = xtx[pivot], xtx[col]
		inv := 1 / xtx[col][col]
		for j := col; j <= k; j++ {
			xtx[col][j] *= inv
		}
		for r := 0; r < k; r++ {
			if r == col || xtx[r][col] == 0 {
				continue
			}
			f := xtx[r][col]
			for j := col; j <= k; j++ {
				xtx[r][j] -= f * xtx[col][j]
			}
		}
	}
	w := make([]float64, k)
	for i := range w {
		w[i] = xtx[i][k]
	}
	return w, nil
}

// RidgeFit is MultiFit with L2 regularization of strength lambda on all
// weights except the first (conventionally the intercept column). It
// handles collinear features that make the plain normal equations
// singular — e.g. activity rates that are exact multiples of each other
// at tile-aligned problem sizes.
func RidgeFit(rows [][]float64, ys []float64, lambda float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, ErrSingular
	}
	if lambda <= 0 {
		return MultiFit(rows, ys)
	}
	k := len(rows[0])
	// Augment the design matrix with √λ rows penalizing each
	// non-intercept weight; least squares on the augmented system is
	// ridge regression.
	aug := make([][]float64, 0, len(rows)+k-1)
	augY := make([]float64, 0, len(ys)+k-1)
	aug = append(aug, rows...)
	augY = append(augY, ys...)
	s := math.Sqrt(lambda)
	for j := 1; j < k; j++ {
		row := make([]float64, k)
		row[j] = s
		aug = append(aug, row)
		augY = append(augY, 0)
	}
	return MultiFit(aug, augY)
}

// RSquared returns the coefficient of determination of predictions
// against observations.
func RSquared(pred, obs []float64) float64 {
	if len(pred) != len(obs) {
		panic("stats: RSquared length mismatch")
	}
	if len(obs) == 0 {
		return 0
	}
	m := Mean(obs)
	var ssRes, ssTot float64
	for i := range obs {
		d := obs[i] - pred[i]
		ssRes += d * d
		t := obs[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// ArgMax returns the index of the largest value, or -1 for empty input.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Spearman returns the Spearman rank correlation between paired
// samples: Pearson correlation of the rank vectors, with average ranks
// for ties.
func Spearman(xs, ys []float64) float64 {
	return Pearson(ranks(xs), ranks(ys))
}

func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by value: n is small in our usage (tens of
	// experiment configurations).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && xs[idx[j]] < xs[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
