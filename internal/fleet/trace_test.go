package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/patterns"
)

func TestTraceWriteReadRoundTrip(t *testing.T) {
	// The recorder half of trace replay: a synthetic trace dumped with
	// WriteTrace and re-read with ReadTrace must reproduce the exact
	// job stream, and a second dump must be byte-identical (so a
	// recorded fleetsim run replays to the same report).
	orig, err := Synthetic(SyntheticConfig{
		Jobs:     32,
		RatePerS: 300,
		Seed:     11,
		DTypes:   []string{"FP16", "INT8"},
		Patterns: []string{"gaussian(default)", "constant(7)", "gaussian(default) | sparsify(50%)"},
		Sizes:    []int{64, 128},
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	dumped := append([]byte(nil), buf.Bytes()...)

	replayed, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, replayed) {
		t.Fatal("trace did not survive a write/read round trip")
	}

	var again bytes.Buffer
	if err := replayed.WriteTrace(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumped, again.Bytes()) {
		t.Fatal("re-dumped trace differs byte-for-byte from the original dump")
	}
}

func TestTraceWritePinnedDeviceSurvives(t *testing.T) {
	orig := &Trace{Jobs: []Job{
		{ID: "a", Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "constant(1)", Size: 64, Iterations: 100},
		{ID: "b", DType: "INT8", Pattern: "gaussian( default )", Size: 32, ArrivalS: 0.5, Iterations: 50},
	}}
	if err := orig.normalize(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, replayed) {
		t.Fatalf("round trip lost fields:\norig:     %+v\nreplayed: %+v", orig, replayed)
	}
	if replayed.Jobs[0].Device != "A100-PCIe-40GB" {
		t.Error("device pin lost in round trip")
	}
	// normalize canonicalized the pattern before the dump, so the
	// replayed job spec (and with it every oracle key) is unchanged.
	if replayed.Jobs[1].Pattern != "gaussian(default)" {
		t.Errorf("pattern %q not canonical after round trip", replayed.Jobs[1].Pattern)
	}
}

func TestTraceNormalizeCanonicalizesEachSpelling(t *testing.T) {
	// Three spellings of one pattern and two of another, each repeated,
	// among near-identical patterns: every job must carry exactly its
	// own spelling's canonical form.
	spellings := []string{
		"gaussian(default) | sort(rows, 50%)",
		"gaussian( default )|sort(rows,50%)",
		"constant(7)",
		"gaussian(default) | sort(rows, 25%)",
		"gaussian(mean=0, std=210) | sort(rows, frac=0.5)",
		"constant( 7 )",
		"constant(8)",
	}
	tr := &Trace{}
	for i := 0; i < 3*len(spellings); i++ {
		tr.Jobs = append(tr.Jobs, Job{ID: fmt.Sprintf("j%02d", i), DType: "FP16", Pattern: spellings[i%len(spellings)], Size: 32, ArrivalS: float64(i), Iterations: 10})
	}
	if err := tr.normalize(); err != nil {
		t.Fatal(err)
	}
	for i, j := range tr.Jobs {
		want, err := patterns.Canonicalize(spellings[i%len(spellings)])
		if err != nil {
			t.Fatal(err)
		}
		if j.Pattern != want || j.key.pattern != want {
			t.Errorf("job %s: pattern %q, key %q; want %q", j.ID, j.Pattern, j.key.pattern, want)
		}
	}
}

func TestTraceNormalizeReportsFirstInvalidPattern(t *testing.T) {
	// The third job's pattern is invalid and recurs on a later job: the
	// error names the third job.
	tr := &Trace{}
	for i, p := range []string{"constant(7)", "gaussian(default)", "nope(", "constant(7)", "gaussian(default)", "nope("} {
		tr.Jobs = append(tr.Jobs, Job{ID: fmt.Sprintf("j%d", i), DType: "FP16", Pattern: p, Size: 32, Iterations: 10})
	}
	err := tr.normalize()
	if err == nil || !strings.Contains(err.Error(), "job j2:") {
		t.Errorf("normalize error = %v, want one naming job j2", err)
	}
}

// FuzzReadTrace feeds ReadTrace raw bytes. It must never panic, and a
// trace it accepts must write out to JSON that reads back and writes
// out to the same bytes: normalization is idempotent, which is what
// lets a dumped trace replay to the same report.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := tr.WriteTrace(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, first.Bytes())
		}
		if err := again.WriteTrace(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trace changed on its second round trip:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
