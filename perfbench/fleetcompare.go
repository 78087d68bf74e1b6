package main

// fleet-compare: fleetsim -compare over all five sched.All() policies
// through fleet.PolicyRunner, on seeded 512-job traces over four A100s
// under a 300 W cap. An op is one sched.Compare, on each of the run's
// traces in turn.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/activity"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
)

var fleetCompareWorkload = workload{
	name:     "fleet-compare",
	clients:  fleetClients,
	round:    fleetTraces,
	chunkOps: 2 * fleetTraces,
	tailMax:  75,
	setup:    setupFleetCompare,
}

const (
	// fleetClients is one caller per vCPU of the reference machine.
	fleetClients = 2
	// fleetTraces is how many seeded traces a run cycles through. A
	// Compare on one trace can cost 10-20 % more than on another (job
	// lengths are log-uniform), so a run that timed a single trace
	// would measure its seed about as much as the code.
	fleetTraces  = 4
	fleetJobs    = 512
	fleetRate    = 200
	fleetDevices = "A100-PCIe-40GB:4"
	fleetCapW    = 300
	// fleetSampleOutputs is the oracle's simulation fidelity
	// (fleet.NewModelOracle's default).
	fleetSampleOutputs = 128
)

// fleetSizes is fleetsim's default -sizes mix; dtypes and patterns take
// fleet.Synthetic's defaults, as fleetsim does.
var fleetSizes = []int{128, 256, 512}

type fleetSession struct {
	rec     *recorder
	seed    uint64
	traces  []*fleet.Trace
	cfg     fleet.Config
	callers []fleetCaller
	tickS   float64
	stages  stageProbe
	probed  bool

	mu    sync.Mutex
	first []string   // digest of each trace's first front
	front frontStats // summed over the traces' first fronts
}

// fleetCaller is one closed-loop caller's policy set. In traced runs
// each caller has its own decorated policies, whose parent span it
// sets before each simulation.
type fleetCaller struct {
	policies []sched.Policy
	traced   []*tracedPolicy
}

func setupFleetCompare(seed uint64, rec *recorder) (session, error) {
	var traces []*fleet.Trace
	for k := uint64(0); k < fleetTraces; k++ {
		// Each workload seed has traces of its own.
		t, err := fleet.Synthetic(fleet.SyntheticConfig{Jobs: fleetJobs, RatePerS: fleetRate, Seed: seed*fleetTraces + k, Sizes: fleetSizes})
		if err != nil {
			return nil, err
		}
		traces = append(traces, t)
	}
	devs, err := device.ParseSpec(fleetDevices)
	if err != nil {
		return nil, err
	}
	oracle := fleet.NewModelOracle()
	keys, err := oracleKeys(traces, devs)
	if err != nil {
		return nil, err
	}
	// Fill the oracle, as the first simulation of a run would.
	if _, err := oracle.Resolve(context.Background(), keys); err != nil {
		return nil, err
	}
	s := &fleetSession{rec: rec, seed: seed, traces: traces, tickS: 1e-3, first: make([]string, fleetTraces)}
	s.cfg = fleet.Config{Devices: devs, Oracle: oracle, PowerCapW: fleetCapW, TickS: s.tickS}
	for c := 0; c < fleetClients; c++ {
		fc := fleetCaller{policies: sched.All()}
		if rec != nil {
			for i, p := range fc.policies {
				var tp *tracedPolicy
				fc.policies[i], tp = tracePolicy(p, rec)
				fc.traced = append(fc.traced, tp)
			}
		}
		s.callers = append(s.callers, fc)
	}
	if rec != nil {
		s.cfg.Oracle = tracedOracle{inner: oracle, rec: rec}
		if s.stages, err = probeStages(keys); err != nil {
			return nil, err
		}
		s.probed = true
	}
	return s, nil
}

// oracleKeys lists the traces' distinct operating-point keys on the
// fleet's models, in trace order.
func oracleKeys(traces []*fleet.Trace, devs []*device.Device) ([]fleet.OpKey, error) {
	seen := map[fleet.OpKey]bool{}
	var keys []fleet.OpKey
	for _, t := range traces {
		for _, j := range t.Jobs {
			dt, ok := matrix.ParseDType(j.DType)
			if !ok {
				return nil, fmt.Errorf("job %s: unknown dtype %q", j.ID, j.DType)
			}
			for _, d := range devs {
				k := fleet.OpKey{Device: d.Name, DType: dt.String(), Pattern: j.Pattern, Size: j.Size}
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	return keys, nil
}

// runner is fleet.PolicyRunner with a "fleet.run.<policy>" span around
// each simulation; the policy's Place spans and the oracle's Resolve
// span nest under it.
func (s *fleetSession) runner(fc fleetCaller, trace *fleet.Trace, parent uint64) sched.Runner {
	run := fleet.PolicyRunner(s.cfg, trace)
	return func(ctx context.Context, p sched.Policy) (sched.Outcome, error) {
		sp := s.rec.begin(parent)
		for _, tp := range fc.traced {
			tp.parent = sp.id
		}
		o, err := run(withSpan(ctx, sp.id), p)
		sp.end("fleet.run." + p.Name())
		return o, err
	}
}

func (s *fleetSession) op(client, seq int) (time.Duration, error) {
	k := seq % fleetTraces
	fc := s.callers[client]
	sp := s.rec.begin(0)
	start := time.Now()
	front, err := sched.Compare(context.Background(), s.runner(fc, s.traces[k], sp.id), fc.policies)
	lat := time.Since(start)
	sp.end("sched.compare")
	if err != nil {
		return lat, err
	}
	for _, o := range front.Outcomes {
		if o.Unfinished > 0 {
			return lat, fmt.Errorf("%s left %d jobs unfinished", o.Policy, o.Unfinished)
		}
	}
	d, err := digestFront(front)
	if err != nil {
		return lat, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.first[k] {
	case d:
		return lat, nil
	case "":
		s.first[k] = d
		s.recordFront(front)
	default:
		return lat, fmt.Errorf("trace %d: front differs from its first one", k)
	}
	if s.seed == defaultSeed && !slices.Contains(s.first, "") {
		if all := digestStrings(s.first); all != committedDigests["fleet-compare"] {
			return lat, fmt.Errorf("fronts digest %s differs from the committed %s", all, committedDigests["fleet-compare"])
		}
	}
	return lat, nil
}

// frontStats are the exact simulated statistics of fronts, summed over
// their policies.
type frontStats struct{ makespanS, throttleEvents, ticks float64 }

// recordFront adds a trace's first front to s.front.
func (s *fleetSession) recordFront(f *sched.Front) {
	for _, o := range f.Outcomes {
		s.front.makespanS += o.MakespanS
		s.front.throttleEvents += float64(o.ThrottleEvents)
		// The engine advances one tick per TickS of simulated time
		// until the last job completes.
		s.front.ticks += math.Round(o.MakespanS / s.tickS)
	}
}

func (s *fleetSession) counters() (map[string]float64, error) { return nil, nil }

func (s *fleetSession) finish() (string, int, error) { return digestStrings(s.first), 0, nil }

func (s *fleetSession) layers(ix spanIndex, _ map[string]float64, m metrics) {
	// Per Compare: summed Place time per policy, Resolve time, and the
	// engine's own time (each run minus its Place and Resolve spans).
	place := map[string][]float64{}
	var resolve, engine []float64
	for _, c := range ix.byName["sched.compare"] {
		var res, eng float64
		for _, run := range ix.children[c.ID] {
			var kids []interval
			var pl float64
			for _, k := range ix.children[run.ID] {
				kids = append(kids, interval{k.Start, k.End})
				switch {
				case k.Name == "fleet.resolve":
					res += float64(k.End - k.Start)
				case strings.HasPrefix(k.Name, "sched.place."):
					pl += float64(k.End - k.Start)
				}
			}
			policy := strings.TrimPrefix(run.Name, "fleet.run.")
			place[policy] = append(place[policy], pl/1e6)
			eng += float64(selfTime(run.Start, run.End, kids))
		}
		resolve = append(resolve, res/1e6)
		engine = append(engine, eng/1e6)
	}
	for _, p := range sched.All() {
		m.set("sched.place_ms."+p.Name(), median(place[p.Name()]), "ms")
	}
	m.set("fleet.engine_self_ms", median(engine), "ms")
	m.set("fleet.resolve_ms", median(resolve), "ms")
	m.set("fleet.ticks", s.front.ticks, "count")
	if len(engine) > 0 && s.front.ticks > 0 {
		// Recorded segments hold whole rounds, one Compare per trace, so
		// fleetTraces mean Compares are one pass over every trace's ticks.
		var sum float64
		for _, e := range engine {
			sum += e
		}
		m.set("fleet.engine_ns_per_tick", sum/float64(len(engine))*fleetTraces*1e6/s.front.ticks, "ns")
	}
	m.set("fleet.makespan_s", s.front.makespanS, "s")
	m.set("fleet.throttle_events", s.front.throttleEvents, "count")
	if s.probed {
		st := s.stages
		m.set("patterns.apply_ms", st.apply/1e6, "ms")
		m.set("kernels.problem_ms", st.problem/1e6, "ms")
		m.set("activity.analyze_ms", st.analyze/1e6, "ms")
		m.set("power.evaluate_us", st.evaluate/1e3, "us")
		m.set("serve.simulate_ms", st.simulate/1e6, "ms")
		m.set("serve.stage_sum_ms", (st.apply+st.problem+st.analyze+st.evaluate)/1e6, "ms")
	}
}

func (s *fleetSession) close() {}

// stageProbe holds nanoseconds summed over the probed keys.
type stageProbe struct{ simulate, apply, problem, analyze, evaluate float64 }

// probeStages times serve.Simulate on each key and, separately, the
// public stages it composes: Pattern.Apply on both operands,
// kernels.NewTransposedProblem, activity.Analyze and power.Evaluate. The
// stage chain must reproduce Simulate's result exactly, or the probe
// is not measuring the same work.
func probeStages(keys []fleet.OpKey) (stageProbe, error) {
	var st stageProbe
	for _, k := range keys {
		dev := device.ByName(k.Device)
		dt, ok := matrix.ParseDType(k.DType)
		if dev == nil || !ok {
			return st, fmt.Errorf("probe: bad key %+v", k)
		}
		pat, err := patterns.Parse(k.Pattern)
		if err != nil {
			return st, err
		}
		t := time.Now()
		_, want, err := serve.Simulate(dev, dt, pat, k.Size, fleetSampleOutputs)
		if err != nil {
			return st, err
		}
		st.simulate += float64(time.Since(t))

		t = time.Now()
		base := rng.Derive(0x5E12FE, "serve/"+pat.Name)
		a := matrix.New(dt, k.Size, k.Size)
		pat.Apply(a, rng.Derive(base.Uint64(), "A"))
		b := matrix.New(dt, k.Size, k.Size)
		pat.Apply(b, rng.Derive(base.Uint64(), "B"))
		st.apply += float64(time.Since(t))

		t = time.Now()
		prob := kernels.NewTransposedProblem(dt, a, b)
		st.problem += float64(time.Since(t))

		t = time.Now()
		rep, err := activity.Analyze(prob, activity.Config{SampleOutputs: fleetSampleOutputs, Seed: 0xAC71})
		if err != nil {
			return st, err
		}
		st.analyze += float64(time.Since(t))

		t = time.Now()
		got, err := power.Evaluate(dev, prob, rep)
		if err != nil {
			return st, err
		}
		st.evaluate += float64(time.Since(t))

		if !reflect.DeepEqual(got, want) {
			return st, fmt.Errorf("probe: stage chain differs from serve.Simulate on %+v", k)
		}
	}
	return st, nil
}
