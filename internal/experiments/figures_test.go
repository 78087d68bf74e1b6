package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/matrix"
	"repro/internal/rng"
)

// TestFiguresDefinitionPinned pins what each panel of Figures declares,
// without running it: the panel's ID, title, takeaway and x label; each
// point's label, exact X and Bᵀ choice; and, for every extended
// datatype, the point's pattern: its stage names, its sort and no-op
// prefix facts, which split stages it sets, and the bits Apply writes
// into an 8×8 matrix at a fixed seed. TestRunPinnedBits runs eleven of
// the panels at reduced size; this covers all sixteen and the Fig. 7
// selection at no run cost.
func TestFiguresDefinitionPinned(t *testing.T) {
	want := []struct {
		id     string
		digest uint64
	}{
		{"fig1", 0x50afc2dac81a56bb},
		{"fig2", 0x15080a6329d10ef8},
		{"fig3a", 0x95b5d8c178c2dd7b},
		{"fig3b", 0x49e6c7a84dd82d9d},
		{"fig3c", 0x2bca09146d6d2661},
		{"fig4a", 0xcf50be0c7f234bbf},
		{"fig4b", 0x78e8e2deee90a656},
		{"fig4c", 0x64bce783b6e4ceb1},
		{"fig5a", 0x27edd8bb4ac5b0a0},
		{"fig5b", 0xec3693fedb334f64},
		{"fig5c", 0x75732a2c38850f19},
		{"fig5d", 0xcaad1be4b2c4570c},
		{"fig6a", 0x767ce6b620ebb645},
		{"fig6b", 0x461f480bf5af4b09},
		{"fig6c", 0x5becd81433437212},
		{"fig6d", 0xbe9d2eafa5404c20},
	}
	figs := Figures()
	if len(figs) != len(want) {
		t.Fatalf("Figures() has %d panels, want %d", len(figs), len(want))
	}
	for i, exp := range figs {
		w := want[i]
		t.Run(w.id, func(t *testing.T) {
			if exp.ID != w.id {
				t.Fatalf("panel %d is %q, want %q", i, exp.ID, w.id)
			}
			if got := definitionDigest(exp); got != w.digest {
				t.Errorf("definition digest = %#x, want %#x", got, w.digest)
			}
		})
	}

	var fig7 []string
	for _, exp := range Fig7Experiments() {
		fig7 = append(fig7, exp.ID)
	}
	if want := []string{"fig3b", "fig4c", "fig5a", "fig6a"}; !slices.Equal(fig7, want) {
		t.Errorf("Fig7Experiments IDs = %v, want %v", fig7, want)
	}
}

// definitionDigest hashes everything exp declares; see
// TestFiguresDefinitionPinned.
func definitionDigest(exp Experiment) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%q %q %q %q\n", exp.ID, exp.Title, exp.Takeaway, exp.XLabel)
	for _, pt := range exp.Points {
		fmt.Fprintf(h, "%q %#x %v\n", pt.Label, math.Float64bits(pt.X), pt.transposeB())
		for _, dt := range matrix.ExtendedDTypes {
			pat := pt.Pattern(dt)
			sort := "nil"
			if pat.PrepSort != nil {
				sort = fmt.Sprintf("%+v", *pat.PrepSort)
			}
			m := matrix.New(dt, 8, 8)
			pat.Apply(m, rng.New(1))
			fmt.Fprintf(h, "%v %q %q %q %s %v set=%v,%v,%v,%v %x\n",
				dt, pat.Name, pat.BaseName, pat.PrepName, sort, pat.PrepNoop,
				pat.Prep != nil, pat.Transform != nil, pat.DeltaTransform != nil, pat.Rows != nil,
				m.Bits)
		}
	}
	return h.Sum64()
}
