// Package fleet is a trace-driven, deterministic fleet simulator: it
// schedules a stream of GEMM jobs (input pattern, datatype, size,
// arrival time) onto N heterogeneous simulated devices, integrates
// per-device power and temperature over time with the repository's
// switched-capacitance power model, enforces an aggregate power cap
// and per-device thermal throttling, and emits the telemetry a
// datacenter operator provisions against: fleet watts, per-device
// utilization, throttle events and job latency percentiles.
//
// The paper's core result — GEMM power depends strongly on input data
// encoding — matters most at this scale: two fleets running the same
// kernel shapes can differ by tens of kilowatts purely because of what
// bits flow through them. The simulator takes per-job operating points
// from an Oracle; the serving-backed oracles route every lookup
// through POST /predict/batch, so one tick asking about thousands of
// queued jobs costs one simulation per distinct (device, dtype,
// pattern, size) key.
//
// The integration core is the event-driven Engine (engine.go): Run
// wraps it for offline trace replay, and Controller (live.go) wraps
// the same engine as a long-running HTTP control plane that admits
// jobs as they arrive. Because both paths share one engine and the
// controller stamps arrivals with simulated time, a live session's
// recorded trace replays offline to a byte-identical report.
//
// Everything is deterministic: equal configs and traces produce
// byte-identical reports. There is no wall clock, no map-order
// dependence and no unseeded randomness anywhere in the loop.
package fleet

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/serve"
)

// Config describes the simulated fleet and the integration controls.
type Config struct {
	// Devices lists the fleet instances; repeat a preset to model
	// several boards of one model. Must be non-empty.
	Devices []*device.Device
	// Oracle supplies per-(device, job spec) operating points
	// (nil = NewModelOracle, the offline simulation path).
	Oracle Oracle
	// Policy decides job placement (nil = sched.EarliestCompletion,
	// the simulator's historical fixed behaviour). Policies observe
	// per-instance backlog, temperature and the Oracle's operating
	// point for the job on every eligible instance.
	Policy sched.Policy
	// PowerCapW is the aggregate fleet power budget in watts; when the
	// sum of device demands exceeds it, every busy device's clocks are
	// scaled down proportionally (reason "cap"). 0 disables the cap.
	// A cap below the fleet's idle floor stalls all progress — jobs
	// then time out at HorizonS.
	PowerCapW float64
	// AmbientC overrides every device's inlet temperature (rack hot
	// aisle); 0 keeps each preset's own ambient. Raising it above a
	// preset's calibration point is how fleet-level thermal throttling
	// emerges even for configurations the device-local governor allows.
	AmbientC float64
	// TickS is the integration step (default 1 ms).
	TickS float64
	// ThermalTauS is the first-order thermal time constant used to
	// integrate device temperature toward its steady state
	// (default 2 s).
	ThermalTauS float64
	// HorizonS aborts the simulation if jobs are still unfinished at
	// this time (default 300 s). A long-running controller sets this
	// far beyond any expected session length.
	HorizonS float64
	// RecordSamples keeps the full telemetry timeline in the report
	// (Report.Samples); off by default because long runs produce many
	// samples.
	RecordSamples bool
}

func (c Config) withDefaults() Config {
	if c.Oracle == nil {
		c.Oracle = NewModelOracle()
	}
	if c.Policy == nil {
		c.Policy = sched.EarliestCompletion{}
	}
	if c.TickS <= 0 {
		c.TickS = 1e-3
	}
	if c.ThermalTauS <= 0 {
		c.ThermalTauS = 2.0
	}
	if c.HorizonS <= 0 {
		c.HorizonS = 300
	}
	return c
}

// samplePeriodS is the telemetry sampling spacing of
// Config.RecordSamples: 100 ms, the paper's DCGM period.
const samplePeriodS = 0.1

// resolveChunk bounds one Oracle.Resolve call so HTTP-backed oracles
// stay inside the server's batch item limit.
const resolveChunk = serve.MaxBatchItems

// runJob is a scheduled job plus its resolved operating point.
type runJob struct {
	job      *Job
	op       OperatingPoint
	serviceS float64 // iterations × iter time at full clocks
}

// modelOp is an arriving job's operating point on one fleet model; ok
// is false when the job cannot run there.
type modelOp struct {
	op OperatingPoint
	ok bool
}

// instance is the mutable state of one fleet device.
type instance struct {
	dev     *device.Device
	id      string
	model   int // index into the engine's models
	ambient float64

	queue   []*runJob
	cur     *runJob
	doneIts float64

	tempC    float64
	maxTempC float64
	backlogS float64

	busyS      float64
	energyJ    float64
	peakPowerW float64
	capS       float64
	thermalS   float64
	jobsRun    int

	// open throttle-event start times, negative when no event is open.
	capEventStart     float64
	thermalEventStart float64

	step step
}

// step holds an instance's per-tick integration inputs. They change
// only when the busy set does, so the event phase refreshes them and
// quiet ticks read them.
type step struct {
	full, hot clocks
	// throttles reports that full-clock power exceeds the thermal
	// budget, so the instance runs hot once the die reaches throttleC.
	throttles bool
	throttleC float64
	capped    bool
	// iterations is the running job's iteration count.
	iterations float64
}

// clocks is one tick's power draw, the steady temperature it implies,
// the clock scale and the iterations it completes.
type clocks struct {
	power, steady, scale, progressed float64
}

// refresh computes the step values under the global cap scale: full
// clocks, and for a busy instance whose full-clock power exceeds its
// thermal budget, the throttled clocks that hold the die at the
// throttle point.
func (in *instance) refresh(capScale, dt float64) {
	idle := in.dev.IdleWatts
	s := &in.step
	s.throttleC = in.dev.Thermal.ThrottleTempC - 1e-9
	if in.cur == nil {
		s.full = in.clocksAt(idle, 1, 0)
		s.throttles, s.capped = false, false
		return
	}
	dyn := in.cur.op.PowerW - idle
	scale := capScale
	s.capped = capScale < 1-1e-12
	power := idle + scale*dyn
	s.full = in.clocksAt(power, scale, dt*scale/in.cur.op.IterTimeS)
	s.iterations = float64(in.cur.job.Iterations)

	// Thermal governor: once the die reaches the throttle point,
	// clocks scale so steady power holds the temperature there.
	// The limit depends on the (possibly overridden) ambient, so a
	// hot aisle throttles configurations the preset's 30 °C
	// calibration point allowed.
	pMax := (in.dev.Thermal.ThrottleTempC - in.ambient) / in.dev.Thermal.RThermalCPerW
	s.throttles = power > pMax
	if s.throttles {
		ts := (pMax - idle) / (power - idle)
		if ts < 0 {
			ts = 0
		}
		scale *= ts
		power = idle + scale*dyn
		s.hot = in.clocksAt(power, scale, dt*scale/in.cur.op.IterTimeS)
	}
}

// clocksAt pairs a power draw with the steady temperature it implies.
func (in *instance) clocksAt(power, scale, progressed float64) clocks {
	return clocks{
		power:      power,
		steady:     in.ambient + power*in.dev.Thermal.RThermalCPerW,
		scale:      scale,
		progressed: progressed,
	}
}

// Run simulates the trace on the fleet and reduces it to a Report.
// The trace is not mutated; equal inputs produce equal reports. It is
// the offline path over the event-driven Engine: submit every job up
// front, advance to drain.
func Run(ctx context.Context, cfg Config, trace *Trace) (*Report, error) {
	t, err := normalizedCopy(trace)
	if err != nil {
		return nil, err
	}
	return replay(ctx, cfg, t, new(runBuffers))
}

// normalizedCopy returns a normalized copy of the trace, leaving the
// caller's jobs untouched.
func normalizedCopy(trace *Trace) (*Trace, error) {
	if trace == nil || len(trace.Jobs) == 0 {
		return nil, fmt.Errorf("fleet: empty trace")
	}
	t := &Trace{Jobs: slices.Clone(trace.Jobs)}
	if err := t.normalize(); err != nil {
		return nil, err
	}
	return t, nil
}

// runBuffers is the storage a replay needs in proportion to its job
// count: the oracle key list, the pending queue, the run-job slab and
// the completed results. A replay sizes each to its trace, so the
// engine never grows them; a caller that is done with each report
// before the next replay reuses one set.
type runBuffers struct {
	keys      []OpKey
	pending   []*Job
	slab      []runJob
	completed []JobResult
}

// replay runs the normalized trace t through a fresh engine: resolve
// every operating point, submit every job, advance to drain. The
// report's JobResults is b's completed buffer, not a copy, so a caller
// that reuses b must be done with the report first.
func replay(ctx context.Context, cfg Config, t *Trace, b *runBuffers) (*Report, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	n := len(t.Jobs)
	b.keys = slices.Grow(b.keys[:0], n*len(eng.models))
	ops, err := resolveOperatingPoints(ctx, eng.cfg.Oracle, t, eng.models, b.keys)
	if err != nil {
		return nil, err
	}
	eng.AddOperatingPoints(ops)
	b.pending = slices.Grow(b.pending[:0], n)
	b.slab = slices.Grow(b.slab[:0], n)
	b.completed = slices.Grow(b.completed[:0], n)
	eng.pending, eng.slab, eng.completed = b.pending, b.slab, b.completed
	for i := range t.Jobs {
		if err := eng.Submit(&t.Jobs[i]); err != nil {
			return nil, err
		}
	}
	for {
		state, err := eng.Advance(ctx, math.MaxInt)
		if err != nil {
			return nil, err
		}
		if state != Running {
			break
		}
	}
	r := eng.summary()
	// Every job completed or failed, so both fit in the completed
	// buffer, and the engine is done with them.
	r.JobResults = append(eng.completed, eng.failed...)
	return r, nil
}

// buildInstances expands the device list into per-instance state and
// collects the distinct model names present in the fleet.
func buildInstances(cfg Config) ([]*instance, []string, error) {
	counts := map[string]int{}
	var insts []*instance
	var models []string
	for _, d := range cfg.Devices {
		if counts[d.Name] == 0 {
			models = append(models, d.Name)
		}
		ambient := d.Thermal.AmbientC
		if cfg.AmbientC > 0 {
			ambient = cfg.AmbientC
		}
		if ambient >= d.Thermal.ThrottleTempC {
			return nil, nil, fmt.Errorf("fleet: ambient %.1f°C is at or above %s's throttle point %.1f°C",
				ambient, d.Name, d.Thermal.ThrottleTempC)
		}
		insts = append(insts, &instance{
			dev:               d,
			id:                fmt.Sprintf("%s#%d", d.Name, counts[d.Name]),
			model:             slices.Index(models, d.Name),
			ambient:           ambient,
			tempC:             ambient,
			maxTempC:          ambient,
			capEventStart:     -1,
			thermalEventStart: -1,
		})
		counts[d.Name]++
	}
	return insts, models, nil
}

// resolveOperatingPoints asks the oracle for every (candidate model ×
// job spec) pair the scheduler could need, in deterministic order and
// bounded chunks, building the key list in keys' storage. Duplicate
// keys across jobs are intentionally left in the request stream —
// coalescing them is the oracle's job, and the coalescing ratio is
// part of what a fleet run demonstrates.
func resolveOperatingPoints(ctx context.Context, oracle Oracle, t *Trace, models []string, keys []OpKey) (map[OpKey]OperatingPoint, error) {
	keys = keys[:0]
	seenPinned := map[string]bool{}
	for _, m := range models {
		seenPinned[m] = true
	}
	for i := range t.Jobs {
		var err error
		if keys, err = appendJobKeys(keys, &t.Jobs[i], models, seenPinned); err != nil {
			return nil, err
		}
	}

	ops := make(map[OpKey]OperatingPoint)
	for start := 0; start < len(keys); start += resolveChunk {
		end := start + resolveChunk
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[start:end]
		resolved, err := oracle.Resolve(ctx, chunk)
		if err != nil {
			return nil, err
		}
		for i, k := range chunk {
			ops[k] = resolved[i]
		}
	}
	return ops, nil
}

// appendJobKeys appends to keys the operating-point keys the scheduler
// could need for one job: one key on its pinned model, or one per
// fleet model when unpinned. The live controller uses the same
// expansion per submission, so live and replayed runs ask the oracle
// identical question streams and the Report's OracleStats match
// byte-for-byte.
func appendJobKeys(keys []OpKey, j *Job, models []string, inFleet map[string]bool) ([]OpKey, error) {
	if j.Device != "" {
		if !inFleet[j.Device] {
			return keys, fmt.Errorf("fleet: job %s pinned to %q, which is not in the fleet", j.ID, j.Device)
		}
		return append(keys, OpKey{Device: j.Device, DType: j.dt.String(), Pattern: j.Pattern, Size: j.Size}), nil
	}
	for _, m := range models {
		keys = append(keys, OpKey{Device: m, DType: j.dt.String(), Pattern: j.Pattern, Size: j.Size})
	}
	return keys, nil
}

// dynBacklogJ is the committed full-clock dynamic energy on the
// instance: Σ (job power − idle floor) × remaining service over the
// running and queued jobs. Recomputed exactly at each admission
// instead of integrated, so scheduling heuristics never see drift.
func (in *instance) dynBacklogJ() float64 {
	var j float64
	if in.cur != nil {
		remaining := (float64(in.cur.job.Iterations) - in.doneIts) * in.cur.op.IterTimeS
		if remaining > 0 {
			j += (in.cur.op.PowerW - in.dev.IdleWatts) * remaining
		}
	}
	for _, rj := range in.queue {
		j += (rj.op.PowerW - in.dev.IdleWatts) * rj.serviceS
	}
	return j
}

// queued is the number of unfinished jobs placed on the instance.
func (in *instance) queued() int {
	n := len(in.queue)
	if in.cur != nil {
		n++
	}
	return n
}
