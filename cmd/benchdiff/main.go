// Command benchdiff compares two `go test -json` benchmark event
// streams (the BENCH_<sha>.json artifacts CI produces) and fails when
// any benchmark matching the filter regressed by more than the
// threshold. It is the regression gate of the CI bench pipeline:
//
//	benchdiff -threshold 25 old.json new.json
//
// exits 1 if any matched benchmark in new.json is more than 25% slower
// than the same benchmark in old.json, in wall time (ns/op) or — when
// both streams were produced with -benchmem — in allocations
// (allocs/op). A benchmark run several times (-count) is compared by
// the median of its repeats on each side. An allocation count going from zero to nonzero is an
// unconditional regression: no percentage can describe losing an
// allocation-free fast path. Streams without allocation data (old
// artifacts predating -benchmem) gate on wall time alone. Benchmarks
// present on only one side are reported but never fail the gate (new
// benchmarks appear, old ones are removed — neither is a regression).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
)

// In a `go test -json` stream the measurement line ("       2\t
// 37447200 ns/op\t...") arrives in an output event whose Test field
// names the benchmark; in plain `go test -bench` output the name leads
// the line. Both shapes are accepted. The -cpu suffix (BenchmarkFoo-8)
// is stripped into the base name. With -benchmem the line carries
// trailing "B/op" and "allocs/op" figures; allocsRe lifts the latter.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)`)
	measLine  = regexp.MustCompile(`^\s*\d+\s+([0-9.]+) ns/op(.*)`)
	allocsRe  = regexp.MustCompile(`([0-9.]+) allocs/op`)
	cpuSuffix = regexp.MustCompile(`-\d+$`)
)

// defaultFilter gates the figure benchmarks plus the engine
// microbenchmark behind them: full activity analyses
// (BenchmarkActivity/<dtype>). An analyzer regression then fails the
// gate directly, with a per-dtype culprit, instead of only surfacing
// as a diluted slowdown of whichever figures exercise it.
const defaultFilter = `^Benchmark(Fig|Activity/)`

type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// meas is one benchmark's measurements. HasAllocs distinguishes "ran
// without -benchmem" from "allocated nothing", so the gate never
// invents an allocation regression against a stream that simply did
// not record allocations.
type meas struct {
	ns        float64
	allocs    float64
	hasAllocs bool
}

// parse extracts benchmark name → measurement from a `go test -json`
// stream. Repeated runs of one benchmark (-count) reduce to the median
// of their ns/op and of their allocs/op, so one outlier repeat moves
// neither; allocations count only when every repeat recorded them.
func parse(path string) (map[string]meas, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	repeats := map[string][]meas{}
	record := func(name, nsStr, rest string) {
		var m meas
		fmt.Sscanf(nsStr, "%g", &m.ns)
		if am := allocsRe.FindStringSubmatch(rest); am != nil {
			fmt.Sscanf(am[1], "%g", &m.allocs)
			m.hasAllocs = true
		}
		repeats[name] = append(repeats[name], m)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			// Tolerate stray non-JSON lines (tee'd stderr etc.).
			continue
		}
		if ev.Action != "output" {
			continue
		}
		if m := benchLine.FindStringSubmatch(ev.Output); m != nil {
			record(m[1], m[2], m[3])
			continue
		}
		if strings.HasPrefix(ev.Test, "Benchmark") {
			if m := measLine.FindStringSubmatch(ev.Output); m != nil {
				record(cpuSuffix.ReplaceAllString(ev.Test, ""), m[1], m[2])
			}
		}
	}
	out := make(map[string]meas, len(repeats))
	for name, ms := range repeats {
		ns, allocs := make([]float64, len(ms)), make([]float64, 0, len(ms))
		for i, m := range ms {
			ns[i] = m.ns
			if m.hasAllocs {
				allocs = append(allocs, m.allocs)
			}
		}
		m := meas{ns: median(ns), hasAllocs: len(allocs) == len(ms)}
		if m.hasAllocs {
			m.allocs = median(allocs)
		}
		out[name] = m
	}
	return out, sc.Err()
}

// median returns the middle of xs, or the mean of the two middle
// values for an even count. It sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	h := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[h]
	}
	return (xs[h-1] + xs[h]) / 2
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so tests can drive the
// whole gate including flag parsing and exit codes: 0 = within
// threshold (or skipped), 1 = regression, 2 = usage/IO error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threshold = fs.Float64("threshold", 25, "fail when a benchmark regresses by more than this percentage")
		filter    = fs.String("filter", defaultFilter, "regexp of benchmark names the gate applies to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold pct] [-filter re] old.json new.json")
		return 2
	}
	filterRe, err := regexp.Compile(*filter)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: bad filter: %v\n", err)
		return 2
	}

	// A missing prior artifact (first run, expired retention, forked
	// PR without artifact access) is a graceful skip, not a failure —
	// there is nothing to regress against.
	if _, statErr := os.Stat(fs.Arg(0)); os.IsNotExist(statErr) {
		fmt.Fprintf(stdout, "benchdiff: prior artifact %s does not exist; skipping gate\n", fs.Arg(0))
		return 0
	}
	old, err := parse(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	cur, err := parse(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if len(old) == 0 {
		// An empty or unparsable prior artifact is a skip too.
		fmt.Fprintln(stdout, "benchdiff: no benchmarks in prior artifact; skipping gate")
		return 0
	}

	if gate(old, cur, *threshold, filterRe, stdout) {
		fmt.Fprintf(stdout, "\nbenchdiff: regression beyond %.0f%% detected\n", *threshold)
		return 1
	}
	fmt.Fprintln(stdout, "\nbenchdiff: within threshold")
	return 0
}

// allocsCell renders an allocs/op figure, or "-" for streams recorded
// without -benchmem.
func allocsCell(m meas) string {
	if !m.hasAllocs {
		return "-"
	}
	return fmt.Sprintf("%.0f", m.allocs)
}

// gate prints the comparison table and reports whether any benchmark
// matching the filter regressed by strictly more than threshold
// percent (a delta of exactly the threshold passes) in either wall
// time or allocations. Allocations gate only when both sides recorded
// them; a zero→nonzero allocation count always fails. Benchmarks on
// only one side are reported but never fail the gate.
func gate(old, cur map[string]meas, threshold float64, filterRe *regexp.Regexp, w io.Writer) bool {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	fmt.Fprintf(w, "%-36s %12s %12s %8s %11s %11s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, name := range names {
		newM := cur[name]
		oldM, ok := old[name]
		if !ok {
			fmt.Fprintf(w, "%-36s %12s %12.0f %8s %11s %11s %8s\n",
				name, "-", newM.ns, "new", "-", allocsCell(newM), "")
			continue
		}
		gated := filterRe.MatchString(name)
		delta := 100 * (newM.ns - oldM.ns) / oldM.ns
		mark := ""
		if gated && delta > threshold {
			mark = "  REGRESSION(time)"
			failed = true
		}
		allocsDelta := ""
		if oldM.hasAllocs && newM.hasAllocs {
			switch {
			case oldM.allocs == 0 && newM.allocs == 0:
				allocsDelta = "+0.0%"
			case oldM.allocs == 0:
				allocsDelta = "+inf%"
				if gated {
					mark += "  REGRESSION(allocs)"
					failed = true
				}
			default:
				ad := 100 * (newM.allocs - oldM.allocs) / oldM.allocs
				allocsDelta = fmt.Sprintf("%+.1f%%", ad)
				if gated && ad > threshold {
					mark += "  REGRESSION(allocs)"
					failed = true
				}
			}
		}
		fmt.Fprintf(w, "%-36s %12.0f %12.0f %+7.1f%% %11s %11s %8s%s\n",
			name, oldM.ns, newM.ns, delta, allocsCell(oldM), allocsCell(newM), allocsDelta, mark)
	}
	gone := make([]string, 0)
	for name := range old {
		if _, ok := cur[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "%-36s %12.0f %12s %8s %11s %11s %8s\n",
			name, old[name].ns, "-", "gone", allocsCell(old[name]), "-", "")
	}
	return failed
}
