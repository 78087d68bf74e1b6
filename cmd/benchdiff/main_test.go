package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeFile drops content into a temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// event builds one `go test -json` output event carrying a benchmark
// measurement in the inline (name-leading) shape.
func event(bench string, ns float64) string {
	return fmt.Sprintf(`{"Action":"output","Test":"%s","Output":"%s-8 \t       3\t%g ns/op\n"}`+"\n",
		bench, bench, ns)
}

// memEvent is event with -benchmem columns appended.
func memEvent(bench string, ns float64, allocs int) string {
	return fmt.Sprintf(`{"Action":"output","Test":"%s","Output":"%s-8 \t       3\t%g ns/op\t    2048 B/op\t      %d allocs/op\n"}`+"\n",
		bench, bench, ns, allocs)
}

// times builds a ns-only measurement map for gate tests.
func times(m map[string]float64) map[string]meas {
	out := make(map[string]meas, len(m))
	for k, v := range m {
		out[k] = meas{ns: v}
	}
	return out
}

func TestParseStreams(t *testing.T) {
	// Both `go test -json` measurement shapes parse: the name-leading
	// benchmark line and the bare measurement line attributed via the
	// Test field; the -cpu suffix is stripped; repeated runs reduce to
	// their median; non-JSON and irrelevant lines are tolerated; the
	// -benchmem allocs/op column is lifted when present and absent
	// otherwise.
	content := strings.Join([]string{
		`not json at all`,
		`{"Action":"run","Test":"BenchmarkFig1"}`,
		event("BenchmarkFig1", 100),
		event("BenchmarkFig1", 120), // two repeats: their mean
		`{"Action":"output","Test":"BenchmarkFig2-8","Output":"       5\t250.5 ns/op\t  12 B/op\t  7 allocs/op\n"}`,
		memEvent("BenchmarkFig3", 300, 42),
		`{"Action":"output","Test":"","Output":"PASS\n"}`,
		``,
	}, "\n")
	got, err := parse(writeFile(t, "stream.json", content))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	if m := got["BenchmarkFig1"]; m.ns != 110 || m.hasAllocs {
		t.Errorf("BenchmarkFig1 = %+v, want ns 110 without allocs (median of two repeats)", m)
	}
	if m := got["BenchmarkFig2"]; m.ns != 250.5 || !m.hasAllocs || m.allocs != 7 {
		t.Errorf("BenchmarkFig2 = %+v, want ns 250.5 with 7 allocs (cpu suffix stripped)", m)
	}
	if m := got["BenchmarkFig3"]; m.ns != 300 || !m.hasAllocs || m.allocs != 42 {
		t.Errorf("BenchmarkFig3 = %+v, want ns 300 with 42 allocs", m)
	}
}

// TestParseMedianOfRepeats: a -count=5 stream whose last repeat is an
// outlier, three times the others, gates on the median. Keeping the
// last repeat would have failed the gate on one noisy run. A repeat
// without allocation data drops allocations from the gate.
func TestParseMedianOfRepeats(t *testing.T) {
	var repeats strings.Builder
	for _, ns := range []float64{101, 98, 104, 99, 300} {
		repeats.WriteString(memEvent("BenchmarkActivity/INT8", ns, 10))
	}
	cur := writeFile(t, "cur.json", repeats.String())
	got, err := parse(cur)
	if err != nil {
		t.Fatal(err)
	}
	if m := got["BenchmarkActivity/INT8"]; m.ns != 101 || !m.hasAllocs || m.allocs != 10 {
		t.Errorf("BenchmarkActivity/INT8 = %+v, want the median 101 ns with 10 allocs", m)
	}
	old := writeFile(t, "old.json", memEvent("BenchmarkActivity/INT8", 100, 10))
	var stdout, stderr bytes.Buffer
	if code := run([]string{old, cur}, &stdout, &stderr); code != 0 {
		t.Errorf("exit = %d, want 0: the median is within threshold\n%s", code, stdout.String())
	}

	mixed := writeFile(t, "mixed.json", memEvent("BenchmarkFig1", 100, 3)+event("BenchmarkFig1", 100))
	if got, err := parse(mixed); err != nil || got["BenchmarkFig1"].hasAllocs {
		t.Errorf("repeats with and without allocs: %+v (%v), want no allocs", got["BenchmarkFig1"], err)
	}
}

func TestParseMalformedJSON(t *testing.T) {
	// A file of pure garbage parses to zero benchmarks (each bad line
	// skipped) rather than erroring — the gate then skips.
	got, err := parse(writeFile(t, "garbage.json", "{{{\nnope\n\x00\xff\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("garbage parsed to %v", got)
	}
}

func TestGateThresholdBoundary(t *testing.T) {
	// The gate fails strictly above the threshold: a slowdown of
	// exactly 25% passes, the next representable step beyond fails.
	filter := regexp.MustCompile(`^BenchmarkFig`)
	old := times(map[string]float64{"BenchmarkFig1": 100})

	var buf bytes.Buffer
	if gate(old, times(map[string]float64{"BenchmarkFig1": 125}), 25, filter, &buf) {
		t.Error("exactly +25.0% must not fail a 25% gate")
	}
	if !gate(old, times(map[string]float64{"BenchmarkFig1": 125.1}), 25, filter, &buf) {
		t.Error("+25.1% must fail a 25% gate")
	}
	// Names outside the filter never fail, whatever the delta.
	if gate(times(map[string]float64{"BenchmarkGEMM": 100}), times(map[string]float64{"BenchmarkGEMM": 500}), 25, filter, &buf) {
		t.Error("benchmarks outside the filter must not fail the gate")
	}
	// One-sided benchmarks (new or gone) are reported, never failures.
	if gate(old, times(map[string]float64{"BenchmarkFig9": 1e9}), 25, filter, &buf) {
		t.Error("a benchmark with no prior measurement must not fail the gate")
	}
	out := buf.String()
	for _, want := range []string{"new", "gone", "REGRESSION(time)"} {
		if !strings.Contains(out, want) {
			t.Errorf("gate output missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultFilterCoverage(t *testing.T) {
	// The default gate covers the figure benchmarks and the per-dtype
	// activity microbenchmarks, but not unrelated or aggregate names —
	// BenchmarkActivity without a sub-benchmark would double-gate the
	// same analyses its /<dtype> children already cover.
	re := regexp.MustCompile(defaultFilter)
	gated := []string{
		"BenchmarkFig1Runtime",
		"BenchmarkFig6aSparsity",
		"BenchmarkActivity/FP16-T",
		"BenchmarkActivity/INT8",
		"BenchmarkActivity/FP32",
		"BenchmarkActivity/BF16-T",
	}
	for _, name := range gated {
		if !re.MatchString(name) {
			t.Errorf("default filter must gate %s", name)
		}
	}
	ungated := []string{
		"BenchmarkReference",
		"BenchmarkGEMM",
		"BenchmarkActivity",
		"BenchmarkAnalyze1024FP32",
		"BenchmarkPredict",
		"BenchmarkEngineTick",
		"BenchmarkTransform/sparsify",
		"BenchmarkScan/A",
		"BenchmarkGenerate/gaussian",
		"BenchmarkTransform/sort-rows",
		"BenchmarkTransform/sort-fractions",
		"BenchmarkWalk/FP16",
		"BenchmarkNorm/FillNorm",
		"BenchmarkCompare",
		"BenchmarkPredictBatchCached",
		"BenchmarkRouterPredict/single",
		"BenchmarkRouterPredict/batch",
	}
	for _, name := range ungated {
		if re.MatchString(name) {
			t.Errorf("default filter must not gate %s", name)
		}
	}

	// End to end through run(): a regression in a /<dtype> engine
	// microbenchmark fails the default gate.
	old := writeFile(t, "old.json", event("BenchmarkActivity/FP16", 100))
	slow := writeFile(t, "slow.json", event("BenchmarkActivity/FP16", 200))
	var stdout, stderr bytes.Buffer
	if got := run([]string{old, slow}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s", got, stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSION(time)") {
		t.Errorf("stdout missing REGRESSION(time):\n%s", stdout.String())
	}
}

func TestGateAllocations(t *testing.T) {
	filter := regexp.MustCompile(`^BenchmarkFig`)
	mem := func(ns, allocs float64) meas { return meas{ns: ns, allocs: allocs, hasAllocs: true} }

	cases := []struct {
		name     string
		old, cur meas
		fail     bool
	}{
		{"allocs within threshold", mem(100, 100), mem(100, 125), false},
		{"allocs beyond threshold", mem(100, 100), mem(100, 126), true},
		{"zero to nonzero always fails", mem(100, 0), mem(100, 1), true},
		{"zero to zero passes", mem(100, 0), mem(100, 0), false},
		{"improvement passes", mem(100, 100), mem(100, 10), false},
		{"old side lacks allocs: time-only gate", meas{ns: 100}, mem(100, 1e6), false},
		{"new side lacks allocs: time-only gate", mem(100, 3), meas{ns: 100}, false},
		{"time and allocs both regress", mem(100, 100), mem(200, 200), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			got := gate(map[string]meas{"BenchmarkFig1": tc.old},
				map[string]meas{"BenchmarkFig1": tc.cur}, 25, filter, &buf)
			if got != tc.fail {
				t.Errorf("gate = %v, want %v\n%s", got, tc.fail, buf.String())
			}
		})
	}

	// Outside the filter, even a zero→nonzero allocation jump passes.
	var buf bytes.Buffer
	if gate(map[string]meas{"BenchmarkGEMM": mem(100, 0)},
		map[string]meas{"BenchmarkGEMM": mem(100, 50)}, 25, filter, &buf) {
		t.Error("allocation regressions outside the filter must not fail the gate")
	}
	// The allocation mark is distinguishable from the time mark.
	buf.Reset()
	gate(map[string]meas{"BenchmarkFig1": mem(100, 100)},
		map[string]meas{"BenchmarkFig1": mem(100, 200)}, 25, filter, &buf)
	if !strings.Contains(buf.String(), "REGRESSION(allocs)") {
		t.Errorf("gate output missing REGRESSION(allocs):\n%s", buf.String())
	}
}

func TestRunExitCodes(t *testing.T) {
	okOld := writeFile(t, "old.json", event("BenchmarkFig1", 100))
	slow := writeFile(t, "slow.json", event("BenchmarkFig1", 200))
	same := writeFile(t, "same.json", event("BenchmarkFig1", 100))
	memOld := writeFile(t, "memold.json", memEvent("BenchmarkFig1", 100, 10))
	memAlloc := writeFile(t, "memalloc.json", memEvent("BenchmarkFig1", 100, 20))

	cases := []struct {
		name string
		args []string
		want int
		out  string
	}{
		{"within threshold", []string{okOld, same}, 0, "within threshold"},
		{"regression", []string{okOld, slow}, 1, "REGRESSION(time)"},
		{"exact boundary passes", []string{"-threshold", "100", okOld, slow}, 0, "within threshold"},
		{"alloc regression", []string{memOld, memAlloc}, 1, "REGRESSION(allocs)"},
		{"alloc data on one side only skips allocs", []string{okOld, memAlloc}, 0, "within threshold"},
		{"missing prior artifact skips", []string{filepath.Join(t.TempDir(), "absent.json"), same}, 0, "skipping gate"},
		{"empty prior artifact skips", []string{writeFile(t, "empty.json", ""), same}, 0, "skipping gate"},
		{"garbage prior artifact skips", []string{writeFile(t, "garbage.json", "{{{\nnot json\n"), same}, 0, "skipping gate"},
		{"missing current artifact errors", []string{okOld, filepath.Join(t.TempDir(), "absent.json")}, 2, ""},
		{"usage error", []string{okOld}, 2, ""},
		{"bad filter", []string{"-filter", "([", okOld, same}, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", got, tc.want, stdout.String(), stderr.String())
			}
			if tc.out != "" && !strings.Contains(stdout.String(), tc.out) {
				t.Errorf("stdout missing %q:\n%s", tc.out, stdout.String())
			}
		})
	}
}
