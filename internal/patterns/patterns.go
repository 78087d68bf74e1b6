// Package patterns defines the input-data constructions of the paper's
// experiments (§IV) as composable, named pattern pipelines, plus the
// small domain-specific language §V proposes for describing data
// patterns to an input-dependent power model.
//
// A Pattern fills one operand matrix from a seeded stream. Experiments
// apply the same pattern to A and B with different streams (§III: "both
// A and B matrices use the same pattern ... The A and B matrices use
// different seeds").
package patterns

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/rng"
)

// Pattern is a named input-data construction: a base generation stage,
// then the RNG-free steps that directly follow it (the prefix), then
// the remaining transform stages. The split is exposed so that runners
// can generate a base matrix once, carry it through the prefix once,
// and derive transform variants from clones of the result (the
// experiments engine caches both per seed this way), while Fill/Apply
// still run the whole pipeline in one pass for single-use callers.
type Pattern struct {
	// Name identifies the pattern in result tables, e.g.
	// "gaussian(mean=0,std=210)|sort(rows,50%)".
	Name string
	// Fill populates m using the given random stream, running the base
	// stage, the prefix and every transform.
	Fill func(m *matrix.Matrix, src *rng.Source)
	// BaseName names the generation stage (the pipeline's first
	// stage); it equals Name for pure generators.
	BaseName string
	// BaseFill runs only the generation stage.
	BaseFill func(m *matrix.Matrix, src *rng.Source)
	// PrepName names the prefix: the steps right after generation that
	// draw no random numbers (sorts, zero-LSB/MSB), joined by '|'. It
	// is empty when generation is followed by a random step or nothing.
	PrepName string
	// Prep runs the prefix, or is nil when PrepName is empty.
	Prep func(m *matrix.Matrix)
	// PrepSort is set when the prefix is exactly one partial sort
	// (Sorted directly on a generator): its placement and fraction. A
	// runner can then derive the prefix of every fraction from one
	// full sort of the base (matrix.FullSort, then
	// matrix.DerivePartialSort); Prep stays the reference.
	PrepSort *SortStep
	// PrepNoop is set when no step of the prefix changes a bit of any
	// matrix (zerolsb(0), zeromsb(0)), so a runner can read the base
	// in its place. A sort changes no bit when it places none of a
	// matrix's values, which depends on the size: PrepSort tells.
	PrepNoop bool
	// Transform runs the transform chain after the prefix, or is nil
	// when nothing follows the generation stage and the prefix.
	Transform func(m *matrix.Matrix, src *rng.Source)

	// DeltaTransform, when non-nil, is an alternative to Transform
	// that applies the same chain (identical bits, identical RNG
	// consumption) and additionally reports which element indices it
	// touched, so runners can update cached operand statistics
	// incrementally. ok is false when some step could not enumerate
	// its touches — the matrix is still fully transformed, but the
	// caller must fall back to a full rescan. Chains containing an
	// untrackable step (random LSB/MSB edits, or a sort or bit zeroing
	// after a random step) have a nil DeltaTransform.
	DeltaTransform func(m *matrix.Matrix, src *rng.Source) (touched []int32, ok bool)

	// Rows, when non-nil, splits the generation stage into a
	// datatype-independent draw and a per-datatype encode, one row at
	// a time. Rows(src) returns next, which draws the next row's raw
	// values, and encode, which writes a row of raw values in datatype
	// dt. Filling a matrix row by row with next and then encode is
	// bit-identical to BaseFill on the same stream, so a runner can
	// draw each row once for every datatype: their generated matrices
	// differ only in rounding.
	Rows func(src *rng.Source) (next func(raw []float64), encode func(dst []uint32, raw []float64, dt matrix.DType))
}

// Apply fills the matrix.
func (p Pattern) Apply(m *matrix.Matrix, src *rng.Source) { p.Fill(m, src) }

// generator builds a base Pattern whose base stage is the whole fill.
func generator(name string, fill func(m *matrix.Matrix, src *rng.Source)) Pattern {
	return Pattern{Name: name, Fill: fill, BaseName: name, BaseFill: fill}
}

// Then composes a transform after this pattern's fill. The step is
// untrackable: the result has no DeltaTransform. Trackable steps go
// through thenTracked, and steps that draw no random numbers through
// thenPure.
func (p Pattern) Then(name string, f func(m *matrix.Matrix, src *rng.Source)) Pattern {
	prevFill := p.Fill
	xform := f
	if prev := p.Transform; prev != nil {
		xform = func(m *matrix.Matrix, src *rng.Source) {
			prev(m, src)
			f(m, src)
		}
	}
	np := p
	np.Name = p.Name + "|" + name
	np.Fill = func(m *matrix.Matrix, src *rng.Source) {
		prevFill(m, src)
		f(m, src)
	}
	np.Transform = xform
	np.DeltaTransform = nil
	return np
}

// thenPure composes a step that draws no random numbers; noop marks
// one that changes no bit. Directly after generation or another such
// step it joins the prefix (Prep); after a random step it is an
// ordinary untrackable transform.
func (p Pattern) thenPure(name string, f func(m *matrix.Matrix), noop bool) Pattern {
	if p.Transform != nil {
		return p.Then(name, func(m *matrix.Matrix, _ *rng.Source) { f(m) })
	}
	prevFill, prevPrep := p.Fill, p.Prep
	np := p
	np.Name = p.Name + "|" + name
	np.Fill = func(m *matrix.Matrix, src *rng.Source) {
		prevFill(m, src)
		f(m)
	}
	np.PrepName, np.Prep, np.PrepSort = name, f, nil
	np.PrepNoop = noop && (prevPrep == nil || p.PrepNoop)
	if prevPrep != nil {
		np.PrepName = p.PrepName + "|" + name
		np.Prep = func(m *matrix.Matrix) {
			prevPrep(m)
			f(m)
		}
	}
	return np
}

// thenTracked composes a transform whose touched positions are
// enumerable. The chain stays trackable only while every step is:
// a preceding untrackable step (nil DeltaTransform with a non-nil
// Transform) poisons the whole chain.
func (p Pattern) thenTracked(name string, f func(m *matrix.Matrix, src *rng.Source),
	tf func(m *matrix.Matrix, src *rng.Source) ([]int32, bool)) Pattern {
	np := p.Then(name, f)
	if p.Transform != nil && p.DeltaTransform == nil {
		return np
	}
	prev := p.DeltaTransform
	np.DeltaTransform = func(m *matrix.Matrix, src *rng.Source) ([]int32, bool) {
		var touched []int32
		if prev != nil {
			t, ok := prev(m, src)
			if !ok {
				// The chain must still be applied in full (same RNG
				// stream) even though tracking already failed.
				f(m, src)
				return nil, false
			}
			touched = t
		}
		t, ok := tf(m, src)
		if !ok {
			return nil, false
		}
		return append(touched, t...), true
	}
	return np
}

// Gaussian fills with Gaussian variates (§IV-A).
func Gaussian(mean, std float64) Pattern {
	return gaussian(fmt.Sprintf("gaussian(mean=%g,std=%g)", mean, std), mean,
		func(matrix.DType) float64 { return std })
}

// GaussianDefault fills with the paper's default distribution for the
// matrix's datatype: mean 0, σ = 210 for FP, σ = 25 for INT8.
func GaussianDefault() Pattern {
	return gaussian("gaussian(default)", 0, matrix.DefaultStd)
}

// gaussian builds a Gaussian generator whose σ may depend on the
// datatype. Its rows draw standard variates, which each datatype maps
// to mean + σ·raw.
func gaussian(name string, mean float64, std func(matrix.DType) float64) Pattern {
	p := generator(name, func(m *matrix.Matrix, src *rng.Source) {
		matrix.FillGaussian(m, src, mean, std(m.DType))
	})
	p.Rows = func(src *rng.Source) (func([]float64), func([]uint32, []float64, matrix.DType)) {
		next := func(raw []float64) { src.FillNorm(raw) }
		encode := func(dst []uint32, raw []float64, dt matrix.DType) {
			matrix.EncodeGaussianStream(dst, raw, dt, mean, std(dt))
		}
		return next, encode
	}
	return p
}

// FromSet fills with values drawn uniformly (with replacement) from a
// set of n Gaussian variates (§IV-A "inputs from a set"). The set
// itself is drawn from the same stream, so different seeds give
// different sets.
func FromSet(n int, mean, std float64) Pattern {
	p := generator(fmt.Sprintf("set(n=%d,mean=%g,std=%g)", n, mean, std),
		func(m *matrix.Matrix, src *rng.Source) {
			set := matrix.GaussianSet(src, n, mean, std)
			matrix.FillFromSet(m, src, set)
		})
	p.Rows = func(src *rng.Source) (func([]float64), func([]uint32, []float64, matrix.DType)) {
		set := matrix.GaussianSet(src, n, mean, std)
		next := func(raw []float64) {
			for j := range raw {
				raw[j] = set[src.Intn(len(set))]
			}
		}
		return next, matrix.EncodeValues
	}
	return p
}

// ConstantRandom fills the whole matrix with a single Gaussian draw
// (§IV-B: "the A matrix is initially filled with one random value and
// the B matrix is filled with another random value").
func ConstantRandom(mean, std float64) Pattern {
	return generator(fmt.Sprintf("constant(random,mean=%g,std=%g)", mean, std),
		func(m *matrix.Matrix, src *rng.Source) {
			matrix.FillConstant(m, src.Gaussian(mean, std))
		})
}

// Uniform fills with uniform variates in [lo, hi).
func Uniform(lo, hi float64) Pattern {
	return generator(fmt.Sprintf("uniform(%g,%g)", lo, hi),
		func(m *matrix.Matrix, src *rng.Source) {
			matrix.FillUniform(m, src, lo, hi)
		})
}

// Constant fills with a fixed value.
func Constant(v float64) Pattern {
	return generator(fmt.Sprintf("constant(%g)", v),
		func(m *matrix.Matrix, _ *rng.Source) { matrix.FillConstant(m, v) })
}

// BitFlips applies independent per-bit flips with probability p
// (§IV-B Fig. 4a) after the base pattern.
func (p Pattern) BitFlips(prob float64) Pattern {
	return p.thenTracked(fmt.Sprintf("flip(p=%g)", prob),
		func(m *matrix.Matrix, src *rng.Source) { matrix.RandomBitFlips(m, src, prob) },
		func(m *matrix.Matrix, src *rng.Source) ([]int32, bool) {
			return matrix.RandomBitFlipsTouched(m, src, prob)
		})
}

// RandomLSBs randomizes the n least significant bits (Fig. 4b).
func (p Pattern) RandomLSBs(n int) Pattern {
	return p.Then(fmt.Sprintf("randlsb(%d)", n),
		func(m *matrix.Matrix, src *rng.Source) { matrix.RandomizeLSBs(m, src, n) })
}

// RandomMSBs randomizes the n most significant bits (Fig. 4c).
func (p Pattern) RandomMSBs(n int) Pattern {
	return p.Then(fmt.Sprintf("randmsb(%d)", n),
		func(m *matrix.Matrix, src *rng.Source) { matrix.RandomizeMSBs(m, src, n) })
}

// SortKind selects one of the §IV-C placement transforms.
type SortKind string

const (
	// SortRows places the lowest fraction of values, ascending, into
	// the first row-major positions; the rest keep their relative
	// order (matrix.IntoRows, Fig. 5a).
	SortRows SortKind = "rows"
	// SortCols does the same in column-major order (matrix.IntoCols,
	// Fig. 5c).
	SortCols SortKind = "cols"
	// SortWithinRows sorts the values inside each row independently
	// (Fig. 5d).
	SortWithinRows SortKind = "withinrows"
)

// placements maps each SortKind to the matrix sort it runs.
var placements = map[SortKind]matrix.Placement{
	SortRows:       matrix.IntoRows,
	SortCols:       matrix.IntoCols,
	SortWithinRows: matrix.WithinRows,
}

// SortStep is one partial sort: where it places the lowest values and
// the fraction of values it places.
type SortStep struct {
	Placement matrix.Placement
	Frac      float64
}

// Sorted applies a partial sort (Fig. 5) after the base pattern.
func (p Pattern) Sorted(kind SortKind, frac float64) Pattern {
	pl, ok := placements[kind]
	np := p.thenPure(fmt.Sprintf("sort(%s,%g%%)", kind, frac*100),
		func(m *matrix.Matrix) {
			if !ok {
				panic(fmt.Sprintf("patterns: unknown sort kind %q", kind))
			}
			matrix.PartialSort(m, pl, frac)
		}, false)
	if ok && p.Prep == nil && p.Transform == nil {
		np.PrepSort = &SortStep{Placement: pl, Frac: frac}
	}
	return np
}

// Sparse zeroes a random fraction of elements (Fig. 6a/6b).
func (p Pattern) Sparse(frac float64) Pattern {
	return p.thenTracked(fmt.Sprintf("sparsify(%g%%)", frac*100),
		func(m *matrix.Matrix, src *rng.Source) { matrix.Sparsify(m, src, frac) },
		func(m *matrix.Matrix, src *rng.Source) ([]int32, bool) {
			return matrix.SparsifyTouched(m, src, frac)
		})
}

// ZeroLSBs clears the n least significant bits (Fig. 6c).
func (p Pattern) ZeroLSBs(n int) Pattern {
	return p.thenPure(fmt.Sprintf("zerolsb(%d)", n),
		func(m *matrix.Matrix) { matrix.ZeroLSBs(m, n) }, n <= 0)
}

// ZeroMSBs clears the n most significant bits (Fig. 6d).
func (p Pattern) ZeroMSBs(n int) Pattern {
	return p.thenPure(fmt.Sprintf("zeromsb(%d)", n),
		func(m *matrix.Matrix) { matrix.ZeroMSBs(m, n) }, n <= 0)
}
