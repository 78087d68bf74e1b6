package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean of 1,2,3 should be 2")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Error("single observation variance should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1: sum sq dev = 32, /7.
	if !almostEq(Variance(xs), 32.0/7, 1e-12) {
		t.Errorf("variance = %v", Variance(xs))
	}
	if !almostEq(StdDev(xs), math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("stddev = %v", StdDev(xs))
	}
}

func TestStdErr(t *testing.T) {
	if StdErr(nil) != 0 {
		t.Error("empty stderr should be 0")
	}
	xs := []float64{1, 1, 1, 1}
	if StdErr(xs) != 0 {
		t.Error("constant sample stderr should be 0")
	}
	xs = []float64{0, 2}
	if !almostEq(StdErr(xs), math.Sqrt(2)/math.Sqrt(2), 1e-12) {
		t.Errorf("stderr = %v", StdErr(xs))
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if !almostEq(Pearson(xs, ys), 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v", Pearson(xs, ys))
	}
	neg := []float64{8, 6, 4, 2}
	if !almostEq(Pearson(xs, neg), -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v", Pearson(xs, neg))
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("zero-variance input should return 0")
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		xs := make([]float64, 10)
		ys := make([]float64, 10)
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		for i := range xs {
			xs[i] = next()
			ys[i] = next()
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultiFitRecoversWeights(t *testing.T) {
	// y = 3 + 2·x1 - 4·x2 exactly.
	rows := [][]float64{
		{1, 0, 0},
		{1, 1, 0},
		{1, 0, 1},
		{1, 2, 3},
		{1, -1, 2},
	}
	ys := make([]float64, len(rows))
	for i, r := range rows {
		ys[i] = 3*r[0] + 2*r[1] - 4*r[2]
	}
	w, err := MultiFit(rows, ys)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -4}
	for i := range want {
		if !almostEq(w[i], want[i], 1e-9) {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestMultiFitSingular(t *testing.T) {
	rows := [][]float64{{1, 2}, {2, 4}, {3, 6}} // collinear
	if _, err := MultiFit(rows, []float64{1, 2, 3}); err == nil {
		t.Error("expected ErrSingular for collinear features")
	}
	if _, err := MultiFit(nil, nil); err == nil {
		t.Error("expected error for empty fit")
	}
}

func TestRSquared(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	if RSquared(obs, obs) != 1 {
		t.Error("perfect prediction should give R²=1")
	}
	mean := Mean(obs)
	pred := []float64{mean, mean, mean, mean}
	if RSquared(pred, obs) != 0 {
		t.Error("mean prediction should give R²=0")
	}
	if RSquared(nil, nil) != 0 {
		t.Error("empty R² should be 0")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax(nil) != -1 {
		t.Error("empty ArgMax should be -1")
	}
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Error("ArgMax wrong")
	}
	if ArgMax([]float64{5, 5, 3}) != 0 {
		t.Error("ArgMax should prefer first of ties")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform gives rank correlation 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	if !almostEq(Spearman(xs, ys), 1, 1e-12) {
		t.Errorf("Spearman of monotone pair = %v", Spearman(xs, ys))
	}
	rev := []float64{125, 64, 27, 8, 1}
	if !almostEq(Spearman(xs, rev), -1, 1e-12) {
		t.Errorf("Spearman of antitone pair = %v", Spearman(xs, rev))
	}
}

func TestSpearmanTies(t *testing.T) {
	// Ties receive average ranks; correlation of a constant is 0.
	if Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("constant x should give 0")
	}
}

func TestRanks(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("ranks = %v, want %v", r, want)
			break
		}
	}
}

func TestRidgeFitHandlesCollinearity(t *testing.T) {
	// x2 = 2·x1 exactly: MultiFit must fail, RidgeFit must still
	// produce accurate predictions.
	rows := [][]float64{
		{1, 1, 2},
		{1, 2, 4},
		{1, 3, 6},
		{1, 4, 8},
	}
	ys := []float64{5, 8, 11, 14} // y = 2 + 3·x1 (split across x1, x2 freely)
	if _, err := MultiFit(rows, ys); err == nil {
		t.Fatal("MultiFit should reject collinear features")
	}
	w, err := RidgeFit(rows, ys, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		pred := w[0]*r[0] + w[1]*r[1] + w[2]*r[2]
		if math.Abs(pred-ys[i]) > 1e-3 {
			t.Errorf("ridge prediction %v, want %v", pred, ys[i])
		}
	}
}

func TestRidgeFitZeroLambdaIsOLS(t *testing.T) {
	rows := [][]float64{{1, 0}, {1, 1}, {1, 2}}
	ys := []float64{1, 3, 5}
	ols, err := MultiFit(rows, ys)
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := RidgeFit(rows, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ols {
		if math.Abs(ols[i]-ridge[i]) > 1e-12 {
			t.Error("lambda=0 ridge should equal OLS")
		}
	}
}

func TestRidgeFitShrinks(t *testing.T) {
	// Heavy regularization pulls non-intercept weights toward zero.
	rows := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	ys := []float64{0, 2, 4, 6} // slope 2
	w, err := RidgeFit(rows, ys, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[1]) > 0.1 {
		t.Errorf("heavily regularized slope %v should be near 0", w[1])
	}
	if _, err := RidgeFit(nil, nil, 1); err == nil {
		t.Error("empty ridge fit should error")
	}
}
