package fleet

// This file is the event-driven simulation core. Engine owns the state
// the old monolithic tick loop kept in locals: a sorted pending-arrival
// queue, per-instance run state, and the telemetry accumulators.
// Advance integrates simulated time in fixed steps and surfaces what
// happened through job lifecycle events, so the same engine drives
// both the offline replay (Run submits a whole trace up front and
// advances to drain) and the live controller (Controller submits jobs
// as they arrive over HTTP and advances only while there is work).
//
// Determinism is the load-bearing property: the tick sequence, the
// float operation order inside it, and every tie-break are exactly the
// pre-refactor loop's, so equal submissions produce byte-identical
// reports whether they arrive as a trace or one POST at a time. Values
// that change only with the busy set are computed once per change
// (refresh), and each accumulation keeps the shape of its expression
// (in.backlogS -= dt * scale, not a precomputed dt*scale): Go may fuse
// a multiply-add into one FMA, so a reshaped expression could change
// bits on builds that do. FuzzEngineMatchesReference holds Advance to
// a per-tick reference engine kept in the tests.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/sched"
)

// EventKind classifies a job lifecycle event.
type EventKind int

// Job lifecycle event kinds, in the order a job passes through them.
const (
	// EventArrival fires when a pending job reaches its arrival time
	// and is handed to the placement policy.
	EventArrival EventKind = iota
	// EventStart fires when a placed job begins running on its device.
	EventStart
	// EventComplete fires when a job finishes its last iteration.
	EventComplete
	// EventFail fires when a job is dropped: bad placement, no eligible
	// device, or unfinished at the simulation horizon.
	EventFail
)

// String names the kind for logs and status endpoints.
func (k EventKind) String() string {
	switch k {
	case EventArrival:
		return "arrival"
	case EventStart:
		return "start"
	case EventComplete:
		return "complete"
	case EventFail:
		return "fail"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one job lifecycle transition, stamped with simulated time.
type Event struct {
	Kind EventKind
	// TimeS is the simulated instant of the transition (for
	// EventComplete, the job's finish time).
	TimeS float64
	// JobID identifies the job.
	JobID string
	// Device is the instance id the event happened on; empty for
	// arrivals and fleet-level failures.
	Device string
	// Err carries the failure reason for EventFail.
	Err string
}

// State is the engine's drive condition when Advance returns.
type State int

const (
	// Running means simulated time advanced and work remains; keep
	// advancing.
	Running State = iota
	// Drained means no job is running or pending: simulated time did
	// not advance, and advancing is pointless until the next Submit.
	Drained
	// Aborted means the simulation horizon passed with jobs unfinished;
	// the engine is terminal and further Submits are rejected.
	Aborted
)

// String names the state for logs and status endpoints.
func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Drained:
		return "drained"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Engine is the deterministic event-driven simulation core: submit
// normalized jobs, tick until drained, reduce to a Report. The zero
// value is not usable; construct with NewEngine. An Engine is not safe
// for concurrent use — the live controller serializes access.
type Engine struct {
	cfg      Config
	insts    []*instance
	models   []string
	ops      map[OpKey]OperatingPoint
	idleSumW float64
	// windowS is positive when cfg.Policy is sched.HorizonAware and
	// asked for a projection window; only then are per-instance power
	// timelines built at each admission.
	windowS float64

	sink func(Event)

	// pending holds submitted jobs not yet admitted, sorted by
	// (ArrivalS, ID) with submission order breaking ties — the same
	// total order Trace.normalize establishes, so a trace submitted in
	// order replays exactly.
	pending   []*Job
	submitted int

	// slab holds the admitted jobs' runJobs, which the instance queues
	// point into. A full slab is left to those pointers and a new one
	// started, so admission allocates once per slab, not once per job.
	slab []runJob

	// candBuf/modelOps/tlBuf are admission scratch, reused across jobs.
	candBuf  []sched.Candidate
	modelOps []modelOp
	tlBuf    [][]sched.PowerSegment
	powerBuf []float64

	// dueS is the earliest time a quiet tick must stop for an event
	// phase: the first pending arrival or the horizon.
	dueS       float64
	nowS       float64
	peakFleetW float64
	fleetWSum  float64 // ∫ fleet power dt
	events     []ThrottleEvent
	samples    []Sample
	nextSample float64

	completed []JobResult
	failed    []JobResult

	state State
}

// slabJobs is the capacity of each slab a live engine starts; an
// offline replay gives its engine one slab sized to the whole trace.
const slabJobs = 64

// NewEngine validates the config and builds an empty engine: no jobs,
// simulated time zero. Callers must install operating points (the
// offline path resolves a whole trace up front, the live path resolves
// per submission) before the first Advance admits a job.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("fleet: no devices")
	}
	for _, d := range cfg.Devices {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	insts, models, err := buildInstances(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		insts:    insts,
		models:   models,
		ops:      make(map[OpKey]OperatingPoint),
		modelOps: make([]modelOp, len(models)),
		powerBuf: make([]float64, len(insts)),
	}
	for _, in := range insts {
		e.idleSumW += in.dev.IdleWatts
	}
	if ha, ok := cfg.Policy.(sched.HorizonAware); ok && ha.HorizonWindowS() > 0 {
		e.windowS = ha.HorizonWindowS()
	}
	return e, nil
}

// SetSink installs the job lifecycle event callback. Events are emitted
// synchronously from Advance (and from Submit on rejection-free paths
// never — submission itself is not an event; admission is). The sink
// must not call back into the engine.
func (e *Engine) SetSink(fn func(Event)) { e.sink = fn }

func (e *Engine) emit(ev Event) {
	if e.sink != nil {
		e.sink(ev)
	}
}

// NowS is the engine's simulated time: the instant the next tick will
// integrate from. Live submissions stamp arrivals with it.
func (e *Engine) NowS() float64 { return e.nowS }

// State reports the drive condition after the most recent Advance.
func (e *Engine) State() State { return e.state }

// Submitted is the number of jobs ever accepted by Submit.
func (e *Engine) Submitted() int { return e.submitted }

// AddOperatingPoints merges resolved operating points into the engine's
// table. Re-adding a key overwrites it; oracles are memoized, so equal
// keys carry equal points and the overwrite is a no-op.
func (e *Engine) AddOperatingPoints(ops map[OpKey]OperatingPoint) {
	for k, v := range ops {
		e.ops[k] = v
	}
}

// Submit queues one normalized job for admission at its arrival time.
// The job must come from a normalized Trace (or jobNormalize): dtype
// parsed, pattern canonical. Arrivals before the engine's current
// simulated time are rejected — admitting one late would break the
// equal-trace-equal-report guarantee the offline replay depends on.
func (e *Engine) Submit(j *Job) error {
	if e.state == Aborted {
		return fmt.Errorf("fleet: engine aborted at horizon %gs", e.cfg.HorizonS)
	}
	if j.key.pattern == "" {
		return fmt.Errorf("fleet: job %s submitted without normalization", j.ID)
	}
	if j.ArrivalS < e.nowS {
		return fmt.Errorf("fleet: job %s arrival %gs is in the simulated past (now %gs)", j.ID, j.ArrivalS, e.nowS)
	}
	// Insert after every pending job with the same (arrival, ID) so
	// submission order breaks ties, exactly like the stable trace sort.
	idx := sort.Search(len(e.pending), func(i int) bool {
		p := e.pending[i]
		if p.ArrivalS != j.ArrivalS {
			return p.ArrivalS > j.ArrivalS
		}
		return p.ID > j.ID
	})
	e.pending = append(e.pending, nil)
	copy(e.pending[idx+1:], e.pending[idx:])
	e.pending[idx] = j
	e.submitted++
	if e.state == Drained {
		e.state = Running
	}
	return nil
}

// Advance integrates up to maxTicks steps of cfg.TickS and returns as
// soon as the state leaves Running: Drained, without advancing time,
// when no work exists, and Aborted when the horizon passes with jobs
// unfinished. A tick runs the event phase first only when it is due
// (on entry, when an arrival is due, after the busy set changed, and
// at the horizon); a quiet tick just integrates every device's power,
// temperature and job progress under the cached governor values. The
// context is checked at every event phase, the first of which runs on
// entry.
func (e *Engine) Advance(ctx context.Context, maxTicks int) (State, error) {
	if e.state == Aborted {
		return Aborted, nil
	}
	dt, tau := e.cfg.TickS, e.cfg.ThermalTauS
	// A Submit since the last call may have queued a job due now.
	due := true
	for n := 0; n < maxTicks; n++ {
		if due || e.nowS >= e.dueS {
			if err := ctx.Err(); err != nil {
				return e.state, err
			}
			if st := e.eventPhase(); st != Running {
				return st, nil
			}
			due = false
		}

		var fleetW float64
		powers := e.powerBuf[:len(e.insts)]
		for i, in := range e.insts {
			s := &in.step
			c, thermal := &s.full, false
			// Thermal governor: once the die reaches the throttle point,
			// the instance runs at its throttled clocks.
			if s.throttles && in.tempC >= s.throttleC {
				c, thermal = &s.hot, true
			}

			// First-order RC temperature integration toward the steady
			// state implied by this tick's power.
			in.tempC += dt * (c.steady - in.tempC) / tau
			if in.tempC > in.maxTempC {
				in.maxTempC = in.tempC
			}
			in.energyJ += c.power * dt
			if c.power > in.peakPowerW {
				in.peakPowerW = c.power
			}
			powers[i] = c.power
			fleetW += c.power
			if (in.capEventStart >= 0) != s.capped || (in.thermalEventStart >= 0) != thermal {
				e.throttleEvents(in, s.capped, thermal)
			}
			if in.cur == nil {
				continue
			}

			in.busyS += dt
			if s.capped {
				in.capS += dt
			}
			if thermal {
				in.thermalS += dt
			}
			in.doneIts += c.progressed
			in.backlogS -= dt * c.scale
			if in.doneIts >= s.iterations {
				e.complete(in, dt)
				due = true
			}
		}
		e.fleetWSum += fleetW * dt
		if fleetW > e.peakFleetW {
			e.peakFleetW = fleetW
		}
		if e.cfg.RecordSamples && e.nowS >= e.nextSample {
			e.recordSample(fleetW, powers)
			e.nextSample += samplePeriodS
		}
		e.nowS += dt
	}
	return e.state, nil
}

// eventPhase admits arrivals due now, starts queued work on idle
// instances, checks for drain and the horizon, and refreshes the step
// values for the busy set that results.
func (e *Engine) eventPhase() State {
	// Admit arrivals: each is handed to the configured placement
	// policy with a snapshot of every eligible instance's state
	// (the default, sched.EarliestCompletion, picks the instance
	// that would finish the job first; ties break on fleet order).
	for len(e.pending) > 0 && e.pending[0].ArrivalS <= e.nowS {
		j := e.pending[0]
		e.pending = e.pending[1:]
		e.emit(Event{Kind: EventArrival, TimeS: e.nowS, JobID: j.ID})
		e.admit(j)
	}

	// Start queued work on idle instances.
	busyAny := false
	for _, in := range e.insts {
		if in.cur == nil && len(in.queue) > 0 {
			in.cur = in.queue[0]
			in.queue = in.queue[1:]
			in.doneIts = 0
			e.emit(Event{Kind: EventStart, TimeS: e.nowS, JobID: in.cur.job.ID, Device: in.id})
		}
		if in.cur != nil {
			busyAny = true
		}
	}
	if !busyAny && len(e.pending) == 0 {
		e.state = Drained
		return Drained
	}
	if e.nowS >= e.cfg.HorizonS {
		e.abortUnfinished()
		e.state = Aborted
		return Aborted
	}

	// Aggregate power-cap governor: demand is each instance's
	// steady operating-point power; when the sum exceeds the cap,
	// dynamic power (and with it, clocks) scales down uniformly
	// across busy instances. Idle floors cannot be capped away.
	var dynSum float64
	for _, in := range e.insts {
		if in.cur != nil {
			dynSum += in.cur.op.PowerW - in.dev.IdleWatts
		}
	}
	capScale := 1.0
	if e.cfg.PowerCapW > 0 && dynSum > 0 && e.idleSumW+dynSum > e.cfg.PowerCapW {
		capScale = (e.cfg.PowerCapW - e.idleSumW) / dynSum
		if capScale < 0 {
			capScale = 0
		}
	}
	for _, in := range e.insts {
		in.refresh(capScale, e.cfg.TickS)
	}

	e.dueS = e.cfg.HorizonS
	if len(e.pending) > 0 && e.pending[0].ArrivalS < e.dueS {
		e.dueS = e.pending[0].ArrivalS
	}
	e.state = Running
	return Running
}

// admit builds the scheduler-visible view of every eligible instance
// and delegates the placement to the configured policy.
func (e *Engine) admit(j *Job) {
	for m, name := range e.models {
		mo := &e.modelOps[m]
		mo.ok = false
		if j.Device == "" || name == j.Device {
			mo.op, mo.ok = e.ops[OpKey{Device: name, DType: j.dt.String(), Pattern: j.Pattern, Size: j.Size}]
		}
	}
	cands := e.candBuf[:0]
	for i, in := range e.insts {
		mo := e.modelOps[in.model]
		if !mo.ok {
			continue
		}
		op := mo.op
		cands = append(cands, sched.Candidate{
			Index:           i,
			Model:           in.dev.Name,
			BacklogS:        in.backlogS,
			Queued:          in.queued(),
			QueueDynEnergyJ: in.dynBacklogJ(),
			TempC:           in.tempC,
			AmbientC:        in.ambient,
			IdleW:           in.dev.IdleWatts,
			RThermalCPerW:   in.dev.Thermal.RThermalCPerW,
			ThrottleTempC:   in.dev.Thermal.ThrottleTempC,
			IterTimeS:       op.IterTimeS,
			PowerW:          op.PowerW,
			PredictedW:      op.PredictedW,
			Throttled:       op.Throttled,
		})
	}
	e.candBuf = cands
	if len(cands) == 0 {
		// Unreachable after resolveOperatingPoints validated pinning,
		// but a dropped job must not vanish silently.
		e.fail(JobResult{ID: j.ID, Error: "no eligible device"})
		return
	}
	pick := e.cfg.Policy.Place(sched.Job{
		ID:         j.ID,
		DType:      j.dt.String(),
		Pattern:    j.Pattern,
		Size:       j.Size,
		ArrivalS:   j.ArrivalS,
		Iterations: j.Iterations,
	}, cands, sched.Fleet{
		PowerCapW: e.cfg.PowerCapW,
		IdleSumW:  e.idleSumW,
		Instances: len(e.insts),
		NowS:      e.nowS,
		TickS:     e.cfg.TickS,
		Timelines: e.timelines(),
	})
	if pick < 0 || pick >= len(cands) {
		e.fail(JobResult{
			ID:    j.ID,
			Error: fmt.Sprintf("policy %s returned invalid placement %d for %d candidates", e.cfg.Policy.Name(), pick, len(cands)),
		})
		return
	}
	in := e.insts[cands[pick].Index]
	op := e.modelOps[in.model].op
	if len(e.slab) == cap(e.slab) {
		e.slab = make([]runJob, 0, slabJobs)
	}
	e.slab = append(e.slab, runJob{job: j, op: op, serviceS: float64(j.Iterations) * op.IterTimeS})
	rj := &e.slab[len(e.slab)-1]
	in.queue = append(in.queue, rj)
	in.backlogS += rj.serviceS
}

// timelines builds the per-instance committed dynamic-power profiles a
// HorizonAware policy projects over: the running job's full-clock
// remainder followed by each queued job's service time, each at its
// operating point's dynamic draw. The slices are rebuilt in place at
// every admission. Horizon-oblivious runs get nil and pay nothing.
func (e *Engine) timelines() [][]sched.PowerSegment {
	if e.windowS <= 0 {
		return nil
	}
	if e.tlBuf == nil {
		e.tlBuf = make([][]sched.PowerSegment, len(e.insts))
	}
	for i, in := range e.insts {
		tl := e.tlBuf[i][:0]
		if in.cur != nil {
			remaining := (float64(in.cur.job.Iterations) - in.doneIts) * in.cur.op.IterTimeS
			if remaining > 0 {
				tl = append(tl, sched.PowerSegment{DurationS: remaining, DynPowerW: in.cur.op.PowerW - in.dev.IdleWatts})
			}
		}
		for _, rj := range in.queue {
			tl = append(tl, sched.PowerSegment{DurationS: rj.serviceS, DynPowerW: rj.op.PowerW - in.dev.IdleWatts})
		}
		e.tlBuf[i] = tl
	}
	return e.tlBuf
}

// fail records a dropped job and emits its failure event.
func (e *Engine) fail(jr JobResult) {
	e.failed = append(e.failed, jr)
	e.emit(Event{Kind: EventFail, TimeS: e.nowS, JobID: jr.ID, Device: jr.Device, Err: jr.Error})
}

// complete records the running job's completion at the end of the
// tick that starts at nowS and frees its instance.
func (e *Engine) complete(in *instance, dt float64) {
	j := in.cur.job
	e.completed = append(e.completed, JobResult{
		ID:         j.ID,
		Device:     in.id,
		DType:      j.dt.String(),
		Pattern:    j.Pattern,
		Size:       j.Size,
		ArrivalS:   j.ArrivalS,
		FinishS:    e.nowS + dt,
		LatencyS:   e.nowS + dt - j.ArrivalS,
		ServiceS:   in.cur.serviceS,
		PowerW:     in.cur.op.PowerW,
		PredictedW: in.cur.op.PredictedW,
	})
	in.jobsRun++
	in.cur = nil
	in.doneIts = 0
	e.emit(Event{Kind: EventComplete, TimeS: e.nowS + dt, JobID: j.ID, Device: in.id})
}

// throttleEvents opens or closes the instance's cap and thermal
// throttle events, in that order; the tick loop calls it only when a
// condition toggled.
func (e *Engine) throttleEvents(in *instance, capped, thermal bool) {
	e.updateEvent(in, &in.capEventStart, capped, "cap")
	e.updateEvent(in, &in.thermalEventStart, thermal, "thermal")
}

// updateEvent opens or closes one (instance, reason) throttle event as
// the condition toggles, coalescing contiguous throttled ticks.
func (e *Engine) updateEvent(in *instance, start *float64, active bool, reason string) {
	switch {
	case active && *start < 0:
		*start = e.nowS
	case !active && *start >= 0:
		e.events = append(e.events, ThrottleEvent{Device: in.id, Reason: reason, StartS: *start, EndS: e.nowS})
		*start = -1
	}
}

// closedEvents returns the run's throttle events with any still-open
// intervals closed at the current simulated time — without mutating
// engine state, so a report taken at a transient drain does not
// truncate an event that a later submission would have extended.
func (e *Engine) closedEvents() []ThrottleEvent {
	events := e.events
	for _, in := range e.insts {
		if in.capEventStart >= 0 {
			events = append(events[:len(events):len(events)],
				ThrottleEvent{Device: in.id, Reason: "cap", StartS: in.capEventStart, EndS: e.nowS})
		}
		if in.thermalEventStart >= 0 {
			events = append(events[:len(events):len(events)],
				ThrottleEvent{Device: in.id, Reason: "thermal", StartS: in.thermalEventStart, EndS: e.nowS})
		}
	}
	return events
}

// abortUnfinished records every job that had not completed when the
// horizon hit: still-running, queued and not-yet-admitted jobs alike.
func (e *Engine) abortUnfinished() {
	for _, in := range e.insts {
		if in.cur != nil {
			e.fail(JobResult{ID: in.cur.job.ID, Device: in.id, Error: "unfinished at horizon"})
			in.cur = nil
		}
		for _, rj := range in.queue {
			e.fail(JobResult{ID: rj.job.ID, Device: in.id, Error: "queued at horizon"})
		}
		in.queue = nil
	}
	for _, j := range e.pending {
		e.fail(JobResult{ID: j.ID, Error: "not admitted before horizon"})
	}
	e.pending = nil
}

// recordSample appends one telemetry sample.
func (e *Engine) recordSample(fleetW float64, powers []float64) {
	sm := Sample{
		TimeS:       e.nowS,
		FleetW:      fleetW,
		DeviceW:     make([]float64, len(e.insts)),
		DeviceTempC: make([]float64, len(e.insts)),
	}
	copy(sm.DeviceW, powers)
	for i, in := range e.insts {
		sm.DeviceTempC[i] = in.tempC
	}
	e.samples = append(e.samples, sm)
}
