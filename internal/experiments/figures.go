package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/stats"
)

// Figures returns every single-device panel of the paper's evaluation
// (§IV, Figs. 1–6) in paper order: the one table that defines them.
// Each row is a panel's ID, title, numbered takeaway, x label and
// points; every panel past the two baselines sweeps one input axis.
func Figures() []Experiment {
	baseline := []Point{{Label: "gaussian", Pattern: func(matrix.DType) patterns.Pattern {
		return patterns.GaussianDefault()
	}}}
	// The LSB/MSB sweeps take fractions of the datatype width, so FP32
	// (32b), FP16 (16b) and INT8 (8b) sweep their whole lanes.
	bitFracs := []float64{0, 0.125, 0.25, 0.375, 0.5, 0.75, 1}
	sortFracs := []float64{0, 0.25, 0.5, 0.75, 1}
	sparsityFracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1}
	sorted := func(kind patterns.SortKind) func(matrix.DType, float64) patterns.Pattern {
		return func(_ matrix.DType, f float64) patterns.Pattern {
			return patterns.GaussianDefault().Sorted(kind, f)
		}
	}
	return []Experiment{
		// Fig. 1: iteration runtime of the 2048² GEMM at the baseline
		// input; the interesting axis is the datatype.
		{"fig1", "Average iteration runtime by datatype",
			"Iteration runtimes are input-independent and consistent to the microsecond",
			"baseline", baseline},
		// Fig. 2: iteration energy with Gaussian inputs (mean 0, σ 210
		// FP / 25 INT8).
		{"fig2", "Average iteration energy by datatype (Gaussian inputs)",
			"Energy tracks runtime across datatypes at similar power",
			"baseline", baseline},
		// Fig. 3a: Gaussian σ at mean 0, as a multiple of the datatype's
		// default σ so every datatype stays in range.
		{"fig3a", "Distribution standard deviation",
			"T1: input distribution standard deviation does not significantly impact power",
			"σ multiplier", sweep([]float64{0.01, 0.05, 0.25, 0.5, 1, 2.5, 5}, format("%gxσ₀"),
				func(dt matrix.DType, f float64) patterns.Pattern {
					return patterns.Gaussian(0, f*matrix.DefaultStd(dt))
				})},
		// Fig. 3b: Gaussian mean at σ = 1. INT8 means are clamped to 100
		// to stay inside the representable range.
		{"fig3b", "Distribution mean",
			"T2: larger input value means can reduce power for FP datatypes",
			"distribution mean", sweep([]float64{0, 1, 4, 16, 64, 256, 1024}, format("mean=%g"),
				func(dt matrix.DType, mu float64) patterns.Pattern {
					if dt == matrix.INT8 && mu > 100 {
						mu = 100
					}
					return patterns.Gaussian(mu, 1)
				})},
		// Fig. 3c: inputs drawn uniformly from a set of n Gaussian values.
		{"fig3c", "Inputs from a set",
			"T3: inputs from a small set of unique values decrease power consumption",
			"set size", sweep([]float64{1, 2, 4, 16, 64, 256, 1024}, format("n=%g"),
				func(dt matrix.DType, n float64) patterns.Pattern {
					return patterns.FromSet(int(n), 0, matrix.DefaultStd(dt))
				})},
		// Fig. 4a: flip each bit of a constant fill with probability p.
		{"fig4a", "Random bit flips",
			"T4: input data with highly similar bits uses less power",
			"flip probability", sweep([]float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}, format("p=%g"),
				func(dt matrix.DType, p float64) patterns.Pattern {
					return patterns.ConstantRandom(0, matrix.DefaultStd(dt)).BitFlips(p)
				})},
		// Fig. 4b: randomize the least significant bits of a constant fill.
		{"fig4b", "Least significant bits randomized",
			"T5: as more least significant bits are randomized, power increases",
			"fraction of LSBs randomized", sweep(bitFracs, percent(" of bits"),
				func(dt matrix.DType, f float64) patterns.Pattern {
					return patterns.ConstantRandom(0, matrix.DefaultStd(dt)).RandomLSBs(bitsOf(dt, f))
				})},
		// Fig. 4c: randomize the most significant bits of a constant fill.
		{"fig4c", "Most significant bits randomized",
			"T6: as more of the most significant bits are randomized, power increases",
			"fraction of MSBs randomized", sweep(bitFracs, percent(" of bits"),
				func(dt matrix.DType, f float64) patterns.Pattern {
					return patterns.ConstantRandom(0, matrix.DefaultStd(dt)).RandomMSBs(bitsOf(dt, f))
				})},
		// Fig. 5a: partial sort into rows, B not transposed.
		{"fig5a", "Sorted into rows (B not transposed)",
			"T8: sorting input values can decrease power consumption",
			"fraction sorted", untransposed(sweep(sortFracs, percent(""), sorted(patterns.SortRows)))},
		// Fig. 5b: partial sort into rows with B transposed, so the
		// lowest values of A multiply the lowest of B.
		{"fig5b", "Sorted and aligned (B transposed)",
			"T9: aligning sorted values decreases power even more than just sorting",
			"fraction sorted", sweep(sortFracs, percent(""), sorted(patterns.SortRows))},
		// Fig. 5c: partial sort into columns.
		{"fig5c", "Sorted into columns",
			"T10: sorting values into columns can decrease power consumption",
			"fraction sorted", sweep(sortFracs, percent(""), sorted(patterns.SortCols))},
		// Fig. 5d: partial sort within each row.
		{"fig5d", "Sorted within rows",
			"T11: intra-row sorting can decrease power, but to a lesser extent than sorting fully",
			"fraction sorted", sweep(sortFracs, percent(""), sorted(patterns.SortWithinRows))},
		// Fig. 6a: random sparsity on Gaussian inputs.
		{"fig6a", "General sparsity",
			"T12: matrix sparsity decreases GEMM power",
			"sparsity", sweep(sparsityFracs, percent(""),
				func(_ matrix.DType, f float64) patterns.Pattern {
					return patterns.GaussianDefault().Sparse(f)
				})},
		// Fig. 6b: matrices fully sorted before sparsity is added. For FP
		// datatypes power peaks around 30–40% sparsity.
		{"fig6b", "Sparsity after sorting",
			"T13: sparsity applied to sorted matrices can actually increase power consumption",
			"sparsity", sweep(sparsityFracs, percent(""),
				func(_ matrix.DType, f float64) patterns.Pattern {
					return patterns.GaussianDefault().Sorted(patterns.SortRows, 1).Sparse(f)
				})},
		// Fig. 6c: zero the least significant bits of Gaussian inputs.
		{"fig6c", "Sparsity in least significant bits",
			"T14: zeroing least significant bits can reduce power",
			"fraction of LSBs zeroed", sweep(bitFracs, percent(" of bits"),
				func(dt matrix.DType, f float64) patterns.Pattern {
					return patterns.GaussianDefault().ZeroLSBs(bitsOf(dt, f))
				})},
		// Fig. 6d: zero the most significant bits of Gaussian inputs.
		{"fig6d", "Sparsity in most significant bits",
			"T15: zeroing most significant bits can reduce power",
			"fraction of MSBs zeroed", sweep(bitFracs, percent(" of bits"),
				func(dt matrix.DType, f float64) patterns.Pattern {
					return patterns.GaussianDefault().ZeroMSBs(bitsOf(dt, f))
				})},
	}
}

// sweep returns one point per x, labelled by label, whose pattern for a
// datatype is pattern(dt, x).
func sweep(xs []float64, label func(x float64) string, pattern func(dt matrix.DType, x float64) patterns.Pattern) []Point {
	pts := make([]Point, len(xs))
	for i, x := range xs {
		pts[i] = Point{Label: label(x), X: x, Pattern: func(dt matrix.DType) patterns.Pattern {
			return pattern(dt, x)
		}}
	}
	return pts
}

// format labels x with a layout holding one verb, e.g. "p=%g".
func format(layout string) func(x float64) string {
	return func(x float64) string { return fmt.Sprintf(layout, x) }
}

// percent labels a fraction as a whole percentage followed by suffix,
// e.g. "50%" or "50% of bits".
func percent(suffix string) func(frac float64) string {
	return func(frac float64) string { return fmt.Sprintf("%.0f%%", frac*100) + suffix }
}

func bitsOf(dt matrix.DType, frac float64) int {
	return int(math.Round(frac * float64(dt.Width())))
}

// untransposed has every point consume B as generated instead of the
// paper's default Bᵀ.
func untransposed(pts []Point) []Point {
	for i := range pts {
		pts[i].UntransposedB = true
	}
	return pts
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range Figures() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Fig7Result holds the cross-GPU generalization runs (Fig. 7): for each
// device, the FP16 series of four experiments.
type Fig7Result struct {
	// Results maps device name → experiment ID → FP16 cells.
	Results map[string]map[string][]Cell
	// Sizes records the matrix size used per device (512 for the
	// RTX 6000, which throttles at 2048²).
	Sizes map[string]int
}

// Fig7Experiments returns the four panels the paper replicates across
// GPUs: distribution mean, MSB randomization, sorted rows, and general
// sparsity (all FP16).
func Fig7Experiments() []Experiment {
	return slices.DeleteFunc(Figures(), func(e Experiment) bool {
		return !slices.Contains([]string{"fig3b", "fig4c", "fig5a", "fig6a"}, e.ID)
	})
}

// RunFig7 executes the generalization study. The base configuration
// supplies size/seeds; device and datatype are overridden per the
// paper: V100, A100, H100 at cfg.Size and the RTX 6000 at 512 (it
// throttles at 2048²), FP16 only.
func RunFig7(cfg Config, devices []DeviceUnderTest) (*Fig7Result, error) {
	cfg = cfg.withDefaults()
	out := &Fig7Result{
		Results: map[string]map[string][]Cell{},
		Sizes:   map[string]int{},
	}
	for _, dut := range devices {
		dcfg := cfg
		dcfg.Device = dut.Device
		dcfg.Size = dut.Size
		dcfg.DTypes = []matrix.DType{matrix.FP16}
		out.Sizes[dut.Device.Name] = dut.Size
		out.Results[dut.Device.Name] = map[string][]Cell{}
		for _, exp := range Fig7Experiments() {
			fr, err := Run(exp, dcfg)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s/%s: %w", dut.Device.Name, exp.ID, err)
			}
			out.Results[dut.Device.Name][exp.ID] = fr.Series[matrix.FP16]
		}
	}
	return out, nil
}

// DeviceUnderTest pairs a device with the matrix size the paper used on
// it.
type DeviceUnderTest struct {
	Device *device.Device
	Size   int
}

// PaperDevices returns the paper's Fig. 7 testbed list at the given
// base size: V100, A100 and H100 at size, the RTX 6000 at 512 (it
// throttled at 2048²).
func PaperDevices(size int) []DeviceUnderTest {
	rtxSize := 512
	if size < rtxSize {
		rtxSize = size
	}
	return []DeviceUnderTest{
		{Device: device.V100SXM2(), Size: size},
		{Device: device.A100PCIe(), Size: size},
		{Device: device.H100SXM(), Size: size},
		{Device: device.RTX6000(), Size: rtxSize},
	}
}

// Fig8Point is one experiment configuration in the Fig. 8 scatter.
type Fig8Point struct {
	ExperimentID string
	Label        string
	Alignment    float64
	Hamming      float64
	PowerW       float64
}

// Fig8Result is the bit-alignment / Hamming-weight correlation analysis
// (§IV-F) over a corpus of figure results.
type Fig8Result struct {
	// Points maps datatype → scatter points (one per experiment cell).
	Points map[matrix.DType][]Fig8Point
	// AlignmentCorr and HammingCorr are Pearson correlations between
	// power and each statistic, per datatype.
	AlignmentCorr map[matrix.DType]float64
	HammingCorr   map[matrix.DType]float64
}

// BuildFig8 assembles the scatter and correlations from prior results.
func BuildFig8(results []*FigureResult) *Fig8Result {
	out := &Fig8Result{
		Points:        map[matrix.DType][]Fig8Point{},
		AlignmentCorr: map[matrix.DType]float64{},
		HammingCorr:   map[matrix.DType]float64{},
	}
	for _, fr := range results {
		for dt, cells := range fr.Series {
			for _, c := range cells {
				out.Points[dt] = append(out.Points[dt], Fig8Point{
					ExperimentID: fr.Experiment.ID,
					Label:        c.Label,
					Alignment:    c.MeanAlignment,
					Hamming:      c.MeanHamming,
					PowerW:       c.PowerW,
				})
			}
		}
	}
	for dt, pts := range out.Points {
		al := make([]float64, len(pts))
		hw := make([]float64, len(pts))
		pw := make([]float64, len(pts))
		for i, p := range pts {
			al[i] = p.Alignment
			hw[i] = p.Hamming
			pw[i] = p.PowerW
		}
		out.AlignmentCorr[dt] = stats.Pearson(al, pw)
		out.HammingCorr[dt] = stats.Pearson(hw, pw)
	}
	return out
}
