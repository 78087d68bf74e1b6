// Command perfbench is the repository's benchmark. It runs one named
// workload against the program's public entry points, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-ring --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose output digests are committed in
// digests.json.
const defaultSeed = 1

// tracedSegments is how many alternating unrecorded and recorded
// segments a traced run's timed phase is split into.
const tracedSegments = 6

var workloads = []workload{campaignWorkload, serveRingWorkload, fleetCompareWorkload}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metricValue

func (m metrics) set(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", defaultSeed, "workload seed: equal seeds give equal inputs")
		seconds = flag.Float64("seconds", 30, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
		out     = flag.String("out", ".bench_build", "directory for span dumps")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(w, *seed, dur, *out)
	} else {
		res, err = runUntraced(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runUntraced sets the workload up setupRuns times, times the last
// set-up's ops for dur, and reports the end-to-end metrics.
func runUntraced(w workload, seed uint64, dur time.Duration) (*result, error) {
	var setups []float64
	var s session
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = w.setup(seed, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()

	p := runPhase(s, w, make([]int, w.clients), dur)
	if len(p.chunks) == 0 {
		return nil, fmt.Errorf("timed phase too short: %d ops, fewer than one chunk of %d", p.ops, w.chunkOps)
	}
	var rates, cpus []float64
	for _, c := range p.chunks {
		rates = append(rates, c.rate)
		cpus = append(cpus, c.cpuPerOp)
	}
	sum := summarize(p.lat, w.tailMax)
	p50 := sum.P50
	if len(p.kindMedians) > 0 {
		p50 = hdQuantile(p.kindMedians, 0.5)
	}
	p.lat = nil
	heap := liveHeapMB()
	digest, checks, failure := s.finish()
	failed := 0
	if failure != nil {
		failed = 1
		if p.firstErr == nil {
			p.firstErr = failure
		}
	}

	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("ops_per_s", median(rates), "1/s")
	m.set("p50_ms", p50, "ms")
	m.set("tail_ms", sum.Tail, "ms")
	m.set("cpu_ms_per_op", median(cpus), "ms")
	m.set("alloc_mb_per_op", float64(p.allocBytes)/1e6/float64(p.ops), "MB")
	m.set("live_heap_mb", heap, "MB")

	res := &result{Attempted: p.ops + checks, Failed: p.failed + failed, Metrics: m}
	res.Correct = res.Failed == 0
	header(w, seed, dur, 0)
	fmt.Printf("setup_s is the median of %d set-ups: %s\n", len(setups), formatList(setups))
	printMetrics(m)
	fmt.Printf("ops_per_s and cpu_ms_per_op are medians over %d chunks of %d ops\n", len(p.chunks), w.chunkOps)
	fmt.Printf("tail_ms is p%g over %d ops (%d beyond it)\n", sum.TailP, sum.N, sum.Beyond)
	if len(p.kindMedians) > 0 {
		fmt.Printf("p50_ms and tail_ms are taken over the %d op kinds' median latencies (ms): %s\n", len(p.kindMedians), formatList(p.kindMedians))
	}
	fmt.Printf("whole phase: %d ops in %.3f s, %.6g ops/s, %.6g CPU ms/op\n", p.ops, p.wall.Seconds(), float64(p.ops)/p.wall.Seconds(), p.cpu.Seconds()*1e3/float64(p.ops))
	fmt.Printf("chunks (ops/s, CPU ms/op, host steal): %s\n", formatChunks(p.chunks))
	if _, ok := s.(missCounter); ok {
		fmt.Printf("first-touch misses in the timed phase: %d (per chunk: %s)\n", p.misses, formatMisses(p.chunks))
	}
	footer(res, p, digest, seed, w.name)
	return res, nil
}

// runTraced sets the workload up once with span recording available
// and splits the timed phase into tracedSegments segments that
// alternate recording off and on. The per-layer metrics come from the
// recorded segments; the off segments are the reference for the
// tracing overhead, interleaved so that drift in host load affects both
// sides alike.
func runTraced(w workload, seed uint64, dur time.Duration, outDir string) (*result, error) {
	rec := newRecorder()
	s, err := w.setup(seed, rec)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.close()

	var (
		total, off, on phase
		delta          = map[string]float64{}
		seqs           = make([]int, w.clients)
	)
	hostStart := readCPUStat()
	start := time.Now()
	for i := 0; i < tracedSegments; i++ {
		recording := i%2 == 1
		var before map[string]float64
		if recording {
			if before, err = s.counters(); err != nil {
				return nil, err
			}
		}
		rec.on.Store(recording)
		// Each segment runs to its share of dur, counted from the start
		// of the phase, so round overshoot does not accumulate.
		p := runPhase(s, w, seqs, dur*time.Duration(i+1)/tracedSegments-time.Since(start))
		rec.on.Store(false)
		seqs = p.nextSeq
		if recording {
			after, err := s.counters()
			if err != nil {
				return nil, err
			}
			for k, v := range after {
				delta[k] += v - before[k]
			}
		}
		side := &off
		if recording {
			side = &on
		}
		for _, ph := range []*phase{side, &total} {
			ph.ops += p.ops
			ph.failed += p.failed
			ph.wall += p.wall
			if ph.firstErr == nil {
				ph.firstErr = p.firstErr
			}
		}
	}
	total.steal = stealFrac(hostStart, readCPUStat())
	digest, checks, failure := s.finish()
	failed := 0
	if failure != nil {
		failed = 1
		if total.firstErr == nil {
			total.firstErr = failure
		}
	}

	m := metrics{}
	for _, n := range perLayerNames {
		m.set(n.Name, 0, n.Unit)
	}
	spans := rec.snapshot()
	s.layers(indexSpans(spans), delta, m)
	offRate := float64(off.ops) / off.wall.Seconds()
	onRate := float64(on.ops) / on.wall.Seconds()
	m.set("bench.trace_overhead_frac", 1-onRate/offRate, "frac")
	m.set("host.steal_frac", total.steal, "frac")
	if err := checkLayerNames(m); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(filepath.Join(outDir, "spans"), 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}

	res := &result{Attempted: total.ops + checks, Failed: total.failed + failed, Metrics: m}
	res.Correct = res.Failed == 0
	header(w, seed, dur, 1)
	printMetrics(m)
	fmt.Printf("recorded %d of %d ops (%.6g ops/s) against %.6g ops/s unrecorded; %d spans written to %s\n",
		on.ops, total.ops, onRate, offRate, len(spans), spanFile)
	footer(res, total, digest, seed, w.name)
	return res, nil
}

func header(w workload, seed uint64, dur time.Duration, trace int) {
	fmt.Printf("workload %s seed %d seconds %g trace %d clients %d\n", w.name, seed, dur.Seconds(), trace, w.clients)
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// footer prints the failure share, host steal and the output check.
func footer(res *result, p phase, digest string, seed uint64, name string) {
	fmt.Printf("fail_frac %g frac (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Printf("host.steal_frac %.4f frac\n", p.steal)
	committed := "not committed for this seed"
	if seed == defaultSeed {
		committed = "matches committed digest"
		if want := committedDigests[name]; want != digest {
			committed = fmt.Sprintf("DIFFERS from committed digest %s", want)
		}
	}
	fmt.Printf("output digest %s (%s)\n", digest, committed)
	if p.firstErr != nil {
		fmt.Printf("first failure: %v\n", p.firstErr)
	}
	status := "ok"
	if !res.Correct {
		status = "FAILED"
	}
	fmt.Printf("output check: %s\n", status)
}

// formatChunks lists each chunk's rate, CPU time per op and host steal
// share, in completion order.
func formatChunks(chunks []chunk) string {
	parts := make([]string, len(chunks))
	for i, c := range chunks {
		parts[i] = fmt.Sprintf("%.4g/%.4g/%.3f", c.rate, c.cpuPerOp, c.steal)
	}
	return strings.Join(parts, " ")
}

// formatMisses lists each chunk's first-touch misses, in completion
// order.
func formatMisses(chunks []chunk) string {
	parts := make([]string, len(chunks))
	for i, c := range chunks {
		parts[i] = strconv.FormatInt(c.misses, 10)
	}
	return strings.Join(parts, " ")
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// layerName is one metric's name and unit.
type layerName struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// perLayerNames lists the per-layer metrics in BENCHMARK.json order. A
// layer the workload does not exercise reads 0.
var perLayerNames = []layerName{
	{"experiments.runtime_ms", "ms"},
	{"experiments.distribution_ms", "ms"},
	{"experiments.bitsim_ms", "ms"},
	{"experiments.placement_ms", "ms"},
	{"experiments.sparsity_ms", "ms"},
	{"experiments.fig8_ms", "ms"},
	{"experiments.points", "count"},
	{"patterns.apply_ms", "ms"},
	{"kernels.problem_ms", "ms"},
	{"activity.analyze_ms", "ms"},
	{"power.evaluate_us", "us"},
	{"serve.simulate_ms", "ms"},
	{"serve.stage_sum_ms", "ms"},
	{"serve.core_hit_us", "us"},
	{"serve.core_batch_us", "us"},
	{"serve.core_miss_ms", "ms"},
	{"serve.hit_ratio", "frac"},
	{"serve.coalesced_frac", "frac"},
	{"serve.simulations", "count"},
	{"serve.shard_http_us", "us"},
	{"cluster.router_self_us", "us"},
	{"cluster.fanout_width", "count"},
	{"cluster.retries", "count"},
	{"sched.place_ms.EarliestCompletion", "ms"},
	{"sched.place_ms.PowerPack", "ms"},
	{"sched.place_ms.ThermalSpread", "ms"},
	{"sched.place_ms.EnergyGreedy", "ms"},
	{"sched.place_ms.PredictiveHorizon", "ms"},
	{"fleet.engine_self_ms", "ms"},
	{"fleet.resolve_ms", "ms"},
	{"fleet.ticks", "count"},
	{"fleet.engine_ns_per_tick", "ns"},
	{"fleet.makespan_s", "s"},
	{"fleet.throttle_events", "count"},
	{"bench.trace_overhead_frac", "frac"},
	{"host.steal_frac", "frac"},
}

// checkLayerNames rejects a metric a workload set under a name that
// BENCHMARK.json does not list.
func checkLayerNames(m metrics) error {
	known := map[string]bool{}
	for _, n := range perLayerNames {
		known[n.Name] = true
	}
	for k := range m {
		if !known[k] {
			return errors.New("unlisted per-layer metric " + k)
		}
	}
	return nil
}
