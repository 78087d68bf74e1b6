package patterns

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/rng"
)

// splitFill runs a pattern stage by stage — BaseFill, then Prep, then
// Transform — on one stream, the way a runner that caches the base and
// the prefix sees it.
func splitFill(p Pattern, m *matrix.Matrix, src *rng.Source) {
	p.BaseFill(m, src)
	if p.Prep != nil {
		p.Prep(m)
	}
	if p.Transform != nil {
		p.Transform(m, src)
	}
}

// TestBaseTransformSplit verifies that BaseFill, then the RNG-free
// prefix, then Transform produce the same result as the monolithic
// Fill on the same stream, and that each pipeline lands in the stage
// its step order implies: pure steps right after generation form the
// prefix, a pure step after a random one stays in Transform, and a
// tracked step after a prefix keeps DeltaTransform.
func TestBaseTransformSplit(t *testing.T) {
	cases := []struct {
		p         Pattern
		prep      string
		transform bool
		delta     bool
	}{
		{GaussianDefault().Sorted(SortRows, 0.5).Sparse(0.3), "sort(rows,50%)", true, true},
		{GaussianDefault().Sorted(SortRows, 1).Sparse(0.1), "sort(rows,100%)", true, true},
		{GaussianDefault().RandomLSBs(4).Sorted(SortRows, 0.5), "", true, false},
		{GaussianDefault().ZeroLSBs(3).Sorted(SortCols, 0.25), "zerolsb(3)|sort(cols,25%)", false, false},
		{GaussianDefault().Sorted(SortWithinRows, 0.5).BitFlips(0.01).ZeroMSBs(2), "sort(withinrows,50%)", true, false},
		{FromSet(5, 0, 210).Sparse(0.2).Sorted(SortRows, 1), "", true, false},
	}
	for _, c := range cases {
		t.Run(c.p.Name, func(t *testing.T) {
			p := c.p
			if p.BaseFill == nil || p.BaseName == p.Name {
				t.Fatalf("split pipeline must expose BaseFill; BaseName %q", p.BaseName)
			}
			if p.PrepName != c.prep || (p.Prep != nil) != (c.prep != "") {
				t.Errorf("PrepName = %q (Prep set %v), want %q", p.PrepName, p.Prep != nil, c.prep)
			}
			if (p.Transform != nil) != c.transform || (p.DeltaTransform != nil) != c.delta {
				t.Errorf("Transform set %v, DeltaTransform set %v; want %v, %v",
					p.Transform != nil, p.DeltaTransform != nil, c.transform, c.delta)
			}
			for _, dt := range []matrix.DType{matrix.FP16, matrix.INT8} {
				whole := matrix.New(dt, 16, 16)
				p.Fill(whole, rng.New(42))
				split := matrix.New(dt, 16, 16)
				splitFill(p, split, rng.New(42))
				if !whole.Equal(split) {
					t.Errorf("%v: BaseFill+Prep+Transform must equal Fill on the same stream", dt)
				}
			}
		})
	}
}

func TestGeneratorHasNoTransform(t *testing.T) {
	g := Gaussian(0, 1)
	if g.Transform != nil || g.Prep != nil {
		t.Error("pure generator should have nil Prep and Transform")
	}
	if g.BaseName != g.Name {
		t.Errorf("generator BaseName %q != Name %q", g.BaseName, g.Name)
	}
}

// TestParsedPatternsCarrySplit checks that DSL pipelines, and patterns
// composed through Then and thenTracked, carry the base, row-split and
// prefix fields through every later step.
func TestParsedPatternsCarrySplit(t *testing.T) {
	p, err := Parse("gaussian(default) | sort(rows, 50%) | zeromsb(2) | sparsify(30%)")
	if err != nil {
		t.Fatal(err)
	}
	if p.BaseName != "gaussian(default)" || p.PrepName != "sort(rows,50%)|zeromsb(2)" ||
		p.Rows == nil || p.Prep == nil || p.Transform == nil || p.DeltaTransform == nil {
		t.Errorf("parsed pipeline split missing: base %q, prep %q", p.BaseName, p.PrepName)
	}
	q := GaussianDefault().ZeroLSBs(2).Then("custom", func(*matrix.Matrix, *rng.Source) {})
	if q.PrepName != "zerolsb(2)" || q.Prep == nil || q.Transform == nil || q.DeltaTransform != nil {
		t.Errorf("Then dropped the prefix: prep %q", q.PrepName)
	}
	r := GaussianDefault().ZeroLSBs(2).BitFlips(0.1)
	if r.PrepName != "zerolsb(2)" || r.Prep == nil || r.DeltaTransform == nil {
		t.Errorf("thenTracked dropped the prefix: prep %q", r.PrepName)
	}
}

// TestPrepSort checks that PrepSort marks exactly the prefixes that
// are one partial sort, with its placement and fraction, and that such
// a prefix derived from a full sort of the base (what a runner caches)
// equals Prep on the base.
func TestPrepSort(t *testing.T) {
	cases := []struct {
		p    Pattern
		want *SortStep
	}{
		{GaussianDefault().Sorted(SortRows, 0.25), &SortStep{matrix.IntoRows, 0.25}},
		{GaussianDefault().Sorted(SortCols, 0.75), &SortStep{matrix.IntoCols, 0.75}},
		{GaussianDefault().Sorted(SortWithinRows, 0.5), &SortStep{matrix.WithinRows, 0.5}},
		{GaussianDefault().Sorted(SortRows, 1).Sparse(0.3), &SortStep{matrix.IntoRows, 1}},
		{FromSet(5, 0, 210).Sorted(SortCols, 0).BitFlips(0.1), &SortStep{matrix.IntoCols, 0}},
		{GaussianDefault().Sorted(SortRows, 0.5).ZeroMSBs(2), nil},
		{GaussianDefault().ZeroLSBs(3).Sorted(SortRows, 0.5), nil},
		{GaussianDefault().Sorted(SortRows, 0.5).Sorted(SortCols, 0.5), nil},
		{GaussianDefault().Sparse(0.2).Sorted(SortRows, 1), nil},
		{GaussianDefault().ZeroLSBs(3), nil},
		{GaussianDefault(), nil},
	}
	for _, c := range cases {
		t.Run(c.p.Name, func(t *testing.T) {
			got := c.p.PrepSort
			if (got == nil) != (c.want == nil) || got != nil && *got != *c.want {
				t.Fatalf("PrepSort = %+v, want %+v", got, c.want)
			}
			if got == nil {
				return
			}
			for _, dt := range matrix.ExtendedDTypes {
				base := matrix.New(dt, 13, 11)
				c.p.BaseFill(base, rng.New(7))
				want := base.Clone()
				c.p.Prep(want)
				full, derived := matrix.New(dt, 13, 11), matrix.New(dt, 13, 11)
				matrix.FullSort(full, base, got.Placement)
				matrix.DerivePartialSort(derived, base, full, got.Placement, got.Frac)
				if !derived.Equal(want) {
					t.Errorf("%v: prefix derived from the full sort differs from Prep", dt)
				}
			}
		})
	}
}
