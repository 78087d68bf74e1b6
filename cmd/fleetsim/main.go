// Command fleetsim runs the trace-driven fleet power simulator
// (internal/fleet): a stream of GEMM jobs is scheduled onto N
// heterogeneous simulated devices, per-device power and temperature
// are integrated over time, an aggregate power cap and thermal
// throttling are enforced, and the run is reduced to an operator-style
// report (fleet watts, utilization, throttle events, job latency
// percentiles).
//
// Workloads come from a JSON trace file (-trace, see internal/fleet
// Trace) or are generated synthetically from a seed; equal seeds and
// flags produce byte-identical reports:
//
//	fleetsim -devices "A100-PCIe-40GB:4" -jobs 256 -seed 1 -cap 400
//	fleetsim -devices "A100-PCIe-40GB:2,H100-SXM5-80GB:2" -trace jobs.json -format csv -samples
//	fleetsim -serve http://localhost:8090 ...   # operating points via POST /predict/batch
//	fleetsim -jobs 256 -seed 1 -dump-trace jobs.json   # record the synthetic run, replay with -trace
//
// Placement is pluggable (internal/sched): -policy selects the
// scheduling policy for one run, and -compare replays the same trace
// through several policies and emits the exact A/B front table
// (latency/energy/throttle axes, JSON or CSV):
//
//	fleetsim -policy PowerPack -cap 310 -jobs 256 -seed 1
//	fleetsim -policy PredictiveHorizon -window 30 -cap 310 -jobs 256 -seed 1
//	fleetsim -compare EarliestCompletion,PowerPack -cap 310 -jobs 256 -seed 1 -format csv
//
// -serve accepts a powerserve or a powerrouter base URL — the sharded
// deployment speaks the same /predict/batch and returns byte-identical
// answers.
//
// Without -serve, operating points come from the in-process model
// oracle (one simulation per distinct (device, dtype, pattern, size)
// key, memoized).
//
// Flag combinations are validated strictly: synthetic-workload flags
// (-jobs, -rate, -seed, -sizes, -dtypes, -patterns, -dump-trace)
// conflict with -trace, -policy or -samples conflict with -compare,
// and -window requires PredictiveHorizon to be among the selected
// policies. Invalid combinations fail loudly with usage text instead
// of being silently ignored.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/sched"
)

func main() {
	var (
		devicesFlag = flag.String("devices", "A100-PCIe-40GB:4", "fleet spec: comma-separated model:count pairs (models from device presets)")
		traceFile   = flag.String("trace", "", "JSON trace file ({\"jobs\": [...]}); empty generates a synthetic workload")
		jobs        = flag.Int("jobs", 256, "synthetic workload: job count")
		rate        = flag.Float64("rate", 200, "synthetic workload: mean arrival rate, jobs/s")
		seed        = flag.Uint64("seed", 1, "synthetic workload seed; equal seeds give identical runs")
		sizesFlag   = flag.String("sizes", "128,256,512", "synthetic workload: GEMM sizes")
		dtypesFlag  = flag.String("dtypes", "FP16,FP16-T,INT8", "synthetic workload: datatype mix")
		patsFlag    = flag.String("patterns", "", "synthetic workload: semicolon-separated pattern DSLs (default: mixed paper axes)")
		capW        = flag.Float64("cap", 0, "aggregate fleet power cap in watts (0 = uncapped)")
		ambient     = flag.Float64("ambient", 0, "rack inlet temperature °C override (0 = device presets)")
		tick        = flag.Float64("tick", 1e-3, "integration step, seconds")
		horizon     = flag.Float64("horizon", 300, "abort unfinished runs at this simulated time, seconds")
		window      = flag.Float64("window", sched.DefaultHorizonWindowS, "PredictiveHorizon projection window, seconds")
		serveURL    = flag.String("serve", "", "resolve operating points via this powerserve base URL's /predict/batch (default: in-process model oracle)")
		policyFlag  = flag.String("policy", "EarliestCompletion", "scheduling policy: "+strings.Join(sched.Names(), ", "))
		compareFlag = flag.String("compare", "", "comma-separated policies to A/B on one trace; emits a front table instead of a report")
		format      = flag.String("format", "json", "output format: json or csv (for reports, csv implies -samples)")
		samples     = flag.Bool("samples", false, "record the full telemetry timeline in the report")
		out         = flag.String("o", "", "write the report to this file (default stdout)")
		dumpTrace   = flag.String("dump-trace", "", "write the executed trace (normalized) to this JSON file, replayable via -trace")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if flag.NArg() > 0 {
		fatalUsage(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *traceFile != "" {
		// A replayed trace fixes the workload: every synthetic-workload
		// knob would be silently dead weight, so reject the combination.
		for _, name := range []string{"jobs", "rate", "seed", "sizes", "dtypes", "patterns", "dump-trace"} {
			if set[name] {
				fatalUsage(fmt.Errorf("-%s configures the synthetic workload and conflicts with -trace", name))
			}
		}
	}
	if set["compare"] {
		if set["policy"] {
			fatalUsage(fmt.Errorf("-policy conflicts with -compare (the comparison runs every listed policy)"))
		}
		if set["samples"] {
			fatalUsage(fmt.Errorf("-samples applies to single-run reports, not -compare front tables"))
		}
	}
	if *format != "json" && *format != "csv" {
		fatalUsage(fmt.Errorf("unknown format %q (json or csv)", *format))
	}
	if set["window"] {
		if *window <= 0 {
			fatalUsage(fmt.Errorf("-window must be positive (a zero window degrades PredictiveHorizon to PowerPack; just pick that policy)"))
		}
		selected := *policyFlag
		if set["compare"] {
			selected = *compareFlag
		}
		if !strings.Contains(strings.ToLower(selected), "predictivehorizon") {
			fatalUsage(fmt.Errorf("-window only applies to the PredictiveHorizon policy, which is not selected"))
		}
	}

	devs, err := device.ParseSpec(*devicesFlag)
	if err != nil {
		fatal(err)
	}

	sizes, err := parseInts(*sizesFlag)
	if err != nil {
		fatal(err)
	}

	var trace *fleet.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		trace, err = fleet.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		cfg := fleet.SyntheticConfig{
			Jobs:     *jobs,
			RatePerS: *rate,
			Seed:     *seed,
			Sizes:    sizes,
			DTypes:   splitList(*dtypesFlag, ","),
		}
		if *patsFlag != "" {
			cfg.Patterns = splitList(*patsFlag, ";")
		}
		trace, err = fleet.Synthetic(cfg)
		if err != nil {
			fatal(err)
		}
	}

	if *dumpTrace != "" {
		f, err := os.Create(*dumpTrace)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	var oracle fleet.Oracle = fleet.NewModelOracle()
	if *serveURL != "" {
		oracle = fleet.BackendOracle(cluster.NewHTTPBackend(strings.TrimRight(*serveURL, "/"), nil))
	}

	cfg := fleet.Config{
		Devices:       devs,
		Oracle:        oracle,
		PowerCapW:     *capW,
		AmbientC:      *ambient,
		TickS:         *tick,
		HorizonS:      *horizon,
		RecordSamples: *samples || (*compareFlag == "" && *format == "csv"),
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *compareFlag != "" {
		policies, err := parsePolicies(*compareFlag)
		if err != nil {
			fatalUsage(err)
		}
		for i, p := range policies {
			policies[i] = applyWindow(p, *window)
		}
		front, err := sched.Compare(context.Background(), fleet.PolicyRunner(cfg, trace), policies)
		if err != nil {
			fatal(err)
		}
		switch *format {
		case "json":
			err = front.WriteJSON(w)
		case "csv":
			err = front.WriteCSV(w)
		}
		if err != nil {
			fatal(err)
		}
		unfinished := 0
		for _, o := range front.Outcomes {
			fmt.Fprintf(os.Stderr,
				"fleetsim: %-20s %d/%d jobs, makespan %.3fs, p99 latency %.3fs, %.0f J, %d throttle events (%.3fs capped)\n",
				o.Policy, o.Completed, o.Jobs, o.MakespanS, o.LatencyP99S, o.FleetEnergyJ, o.ThrottleEvents, o.CapThrottledS)
			unfinished += o.Unfinished
		}
		// Mirror the single-run exit contract: a truncated comparison
		// (any policy leaving jobs unfinished at the horizon) is a
		// failure, not a success with a caveat buried in the table.
		if unfinished > 0 {
			fmt.Fprintf(os.Stderr, "fleetsim: %d jobs unfinished at horizon %.0fs across compared policies\n", unfinished, *horizon)
			os.Exit(1)
		}
		return
	}

	policy, err := sched.ByName(*policyFlag)
	if err != nil {
		fatalUsage(err)
	}
	policy = applyWindow(policy, *window)
	cfg.Policy = policy

	report, err := fleet.Run(context.Background(), cfg, trace)
	if err != nil {
		fatal(err)
	}

	switch *format {
	case "json":
		err = report.WriteJSON(w)
	case "csv":
		err = report.WriteCSV(w)
	}
	if err != nil {
		fatal(err)
	}

	// A one-line operator summary on stderr, so it never pollutes a
	// report piped from stdout.
	fmt.Fprintf(os.Stderr,
		"fleetsim: %s, %d devices, %d/%d jobs, makespan %.3fs, avg %.0fW peak %.0fW, p99 latency %.3fs, %d throttle events, %d/%d oracle lookups distinct\n",
		policy.Name(), len(devs), report.Completed, report.Jobs, report.DurationS,
		report.AvgFleetW, report.PeakFleetW, report.LatencyP99S,
		len(report.ThrottleEvents), report.Oracle.Distinct, report.Oracle.Lookups)
	if report.Unfinished > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: %d jobs unfinished at horizon %.0fs\n", report.Unfinished, *horizon)
		os.Exit(1)
	}
}

// parsePolicies resolves a comma-separated policy list.
func parsePolicies(spec string) ([]sched.Policy, error) {
	names := splitList(spec, ",")
	if len(names) == 0 {
		return nil, fmt.Errorf("-compare needs at least one policy (have %s)", strings.Join(sched.Names(), ", "))
	}
	policies := make([]sched.Policy, len(names))
	for i, n := range names {
		p, err := sched.ByName(n)
		if err != nil {
			return nil, err
		}
		policies[i] = p
	}
	return policies, nil
}

// applyWindow rebinds a PredictiveHorizon policy to the -window flag;
// every other policy passes through untouched.
func applyWindow(p sched.Policy, windowS float64) sched.Policy {
	if _, ok := p.(sched.PredictiveHorizon); ok {
		return sched.PredictiveHorizon{WindowS: windowS}
	}
	return p
}

func splitList(s, sep string) []string {
	var out []string
	for _, p := range strings.Split(s, sep) {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s, ",") {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("fleetsim: bad size %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
	os.Exit(1)
}

// fatalUsage reports a flag-combination error together with the usage
// text, exiting with the conventional flag-error status 2.
func fatalUsage(err error) {
	fmt.Fprintf(os.Stderr, "fleetsim: %v\n\n", err)
	flag.Usage()
	os.Exit(2)
}
