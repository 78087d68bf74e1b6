package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/sched"
)

// refTick is the reference one-tick engine step: every tick runs the
// event phase, re-sums the cap governor and steps each instance.
// FuzzEngineMatchesReference holds Advance to it.
func (e *Engine) refTick(ctx context.Context) (State, error) {
	if e.state == Aborted {
		return Aborted, nil
	}
	if err := ctx.Err(); err != nil {
		return e.state, err
	}
	dt := e.cfg.TickS

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
		return Drained, nil
	}
	if e.nowS >= e.cfg.HorizonS {
		e.abortUnfinished()
		e.state = Aborted
		return Aborted, nil
	}

	// Aggregate power-cap governor: demand is each instance's
	// steady operating-point power; when the sum exceeds the cap,
	// dynamic power (and with it, clocks) scales down uniformly
	// across busy instances. Idle floors cannot be capped away.
	var idleSum, dynSum float64
	for _, in := range e.insts {
		idleSum += in.dev.IdleWatts
		if in.cur != nil {
			dynSum += in.cur.op.PowerW - in.dev.IdleWatts
		}
	}
	capScale := 1.0
	if e.cfg.PowerCapW > 0 && dynSum > 0 && idleSum+dynSum > e.cfg.PowerCapW {
		capScale = (e.cfg.PowerCapW - idleSum) / dynSum
		if capScale < 0 {
			capScale = 0
		}
	}

	// Per-instance step: thermal governor, temperature
	// integration, energy accounting and job progress.
	var fleetW float64
	for i, in := range e.insts {
		p := e.refStepInstance(in, capScale, dt)
		e.powerBuf[i] = p
		fleetW += p
	}
	e.fleetWSum += fleetW * dt
	if fleetW > e.peakFleetW {
		e.peakFleetW = fleetW
	}
	if e.cfg.RecordSamples && e.nowS >= e.nextSample {
		e.recordSample(fleetW, e.powerBuf)
		e.nextSample += samplePeriodS
	}
	e.nowS += dt
	e.state = Running
	return Running, nil
}

// refStepInstance advances one device by dt under the global cap scale
// and returns its power draw this tick.
func (e *Engine) refStepInstance(in *instance, capScale, dt float64) float64 {
	idle := in.dev.IdleWatts
	power := idle
	scale := 1.0
	capped, thermal := false, false

	if in.cur != nil {
		dyn := in.cur.op.PowerW - idle
		scale = capScale
		capped = capScale < 1-1e-12
		power = idle + scale*dyn

		// Thermal governor: once the die reaches the throttle point,
		// clocks scale so steady power holds the temperature there.
		// The limit depends on the (possibly overridden) ambient, so a
		// hot aisle throttles configurations the preset's 30 °C
		// calibration point allowed.
		if in.tempC >= in.dev.Thermal.ThrottleTempC-1e-9 {
			pMax := (in.dev.Thermal.ThrottleTempC - in.ambient) / in.dev.Thermal.RThermalCPerW
			if power > pMax {
				thermal = true
				ts := (pMax - idle) / (power - idle)
				if ts < 0 {
					ts = 0
				}
				scale *= ts
				power = idle + scale*dyn
			}
		}
	}

	// First-order RC temperature integration toward the steady state
	// implied by this tick's power.
	steady := in.ambient + power*in.dev.Thermal.RThermalCPerW
	in.tempC += dt * (steady - in.tempC) / e.cfg.ThermalTauS
	if in.tempC > in.maxTempC {
		in.maxTempC = in.tempC
	}

	in.energyJ += power * dt
	if power > in.peakPowerW {
		in.peakPowerW = power
	}

	if in.cur != nil {
		in.busyS += dt
		if capped {
			in.capS += dt
		}
		if thermal {
			in.thermalS += dt
		}
		e.updateEvent(in, &in.capEventStart, capped, "cap")
		e.updateEvent(in, &in.thermalEventStart, thermal, "thermal")

		progressed := dt * scale / in.cur.op.IterTimeS
		in.doneIts += progressed
		in.backlogS -= dt * scale
		if in.doneIts >= float64(in.cur.job.Iterations) {
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
	} else {
		e.updateEvent(in, &in.capEventStart, false, "cap")
		e.updateEvent(in, &in.thermalEventStart, false, "thermal")
	}
	return power
}

// fakeOracle answers from a fixed table, so a fuzz input sets every
// job's iteration time and power directly.
type fakeOracle map[OpKey]OperatingPoint

func (o fakeOracle) Resolve(_ context.Context, keys []OpKey) ([]OperatingPoint, error) {
	out := make([]OperatingPoint, len(keys))
	for i, k := range keys {
		op, ok := o[k]
		if !ok {
			return nil, fmt.Errorf("fake oracle: no operating point for %+v", k)
		}
		out[i] = op
	}
	return out, nil
}

// Fuzz tables. The ambients sit 1 to 53 °C below the fleet's lowest
// throttle point, so a busy die can cross it within a run; the caps run
// from below one A100's idle floor to 1500 W.
var (
	fuzzAmbientBelowC = [8]float64{0, 1, 1.5, 3, 8, 11, 20, 53}
	fuzzCapW          = [16]float64{0, 0, 40, 100, 150, 230, 260, 300, 333.3, 400, 500, 640, 800, 1000, 1200, 1500}
	fuzzHorizonS      = [8]float64{0.01, 0.05, 0.2, 0.5, 1, 2, 3.3, 5}
	fuzzTauS          = [4]float64{0, 0.01, 0.05, 0.3}
	fuzzGapS          = [8]float64{0, 0, 0, 1e-3, 0.0105, 0.05, 0.2, 1}
	fuzzIterations    = [8]int{1, 2, 50, 300, 1000, 5000, 20000, 100000}
	fuzzIterTimeS     = [8]float64{1e-5, 1e-4, 3e-4, 5e-4, 1e-3, 2.5e-3, 1e-2, 0.1}
	fuzzDynW          = [8]float64{-5, 0, 5, 20, 40, 80, 150, 300}
	fuzzMaxTicks      = [8]int{math.MaxInt, 1, 2, 3, 7, 64, 256, 1000}
)

// fuzzRun is one decoded fuzz input: a fleet config with a fake oracle,
// a trace, and the tick counts each Advance call is given.
type fuzzRun struct {
	cfg      Config
	trace    *Trace
	maxTicks func() int
}

func decodeRun(data []byte) fuzzRun {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var cfg Config
	var models []*device.Device
	for n := 1 + next()%4; n > 0; n-- {
		d := device.A100PCIe()
		if next()%2 == 1 {
			d = device.H100SXM()
		}
		cfg.Devices = append(cfg.Devices, d)
		if !slices.ContainsFunc(models, func(m *device.Device) bool { return m.Name == d.Name }) {
			models = append(models, d)
		}
	}
	if below := fuzzAmbientBelowC[next()%8]; below > 0 {
		throttleC := math.Inf(1)
		for _, d := range cfg.Devices {
			throttleC = math.Min(throttleC, d.Thermal.ThrottleTempC)
		}
		cfg.AmbientC = throttleC - below
	}
	cfg.PowerCapW = fuzzCapW[next()%16]
	cfg.HorizonS = fuzzHorizonS[next()%8]
	cfg.ThermalTauS = fuzzTauS[next()%4]
	flags := next()
	cfg.RecordSamples = flags&1 == 1
	cfg.Policy = sched.All()[int(flags>>1)%len(sched.All())]

	oracle := fakeOracle{}
	cfg.Oracle = oracle
	trace := &Trace{}
	arrivalS := 0.0
	for n, k := 1+int(next()%16), 0; k < n; k++ {
		arrivalS += fuzzGapS[next()%8]
		j := Job{
			ID:         fmt.Sprintf("j%02d", k),
			DType:      "FP16",
			Pattern:    "constant(7)",
			Size:       8 + k,
			ArrivalS:   arrivalS,
			Iterations: fuzzIterations[next()%8],
		}
		if pin := int(next() % 4); pin < len(models) {
			j.Device = models[pin].Name
		}
		for _, d := range models {
			iterTimeS, dynW := fuzzIterTimeS[next()%8], fuzzDynW[next()%8]
			power := d.IdleWatts + dynW
			oracle[OpKey{Device: d.Name, DType: "FP16", Pattern: "constant(7)", Size: j.Size}] = OperatingPoint{
				IterTimeS: iterTimeS, PowerW: power, PredictedW: power, BusyFrac: 1,
			}
		}
		trace.Jobs = append(trace.Jobs, j)
	}
	return fuzzRun{cfg: cfg, trace: trace, maxTicks: func() int { return fuzzMaxTicks[next()%8] }}
}

// newRunEngine builds an engine with the trace submitted, as Run does,
// and records the events it emits.
func newRunEngine(t *testing.T, cfg Config, trace *Trace) (*Engine, *[]Event) {
	t.Helper()
	tr := &Trace{Jobs: append([]Job(nil), trace.Jobs...)}
	if err := tr.normalize(); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := resolveOperatingPoints(context.Background(), eng.cfg.Oracle, tr, eng.models, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.AddOperatingPoints(ops)
	for i := range tr.Jobs {
		if err := eng.Submit(&tr.Jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	events := new([]Event)
	eng.SetSink(func(ev Event) { *events = append(*events, ev) })
	return eng, events
}

// FuzzEngineMatchesReference runs each input on two engines, one driven
// by Advance in the input's tick batches and one by refTick, and
// requires byte-identical JSON reports and equal event streams.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		run := decodeRun(data)
		ctx := context.Background()

		ref, refEvents := newRunEngine(t, run.cfg, run.trace)
		for {
			state, err := ref.refTick(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if state != Running {
				break
			}
		}
		eng, events := newRunEngine(t, run.cfg, run.trace)
		for {
			state, err := eng.Advance(ctx, run.maxTicks())
			if err != nil {
				t.Fatal(err)
			}
			if state != Running {
				break
			}
		}

		var want, got bytes.Buffer
		if err := ref.Report().WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if err := eng.Report().WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Advance report differs from the reference tick's:\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
		}
		if !reflect.DeepEqual(*events, *refEvents) {
			t.Fatalf("Advance emitted %d events, the reference tick %d, or in another order", len(*events), len(*refEvents))
		}
	})
}
