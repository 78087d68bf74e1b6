package fleet

import (
	"context"
	"sync"

	"repro/internal/sched"
)

// Outcome reduces the report to one sched front-table row under the
// given policy name: the latency/energy/throttle axes an A/B
// comparison trades between. The reduction is deterministic, so equal
// reports give byte-identical front rows.
func (r *Report) Outcome(policy string) sched.Outcome {
	o := sched.Outcome{
		Policy:         policy,
		Jobs:           r.Jobs,
		Completed:      r.Completed,
		Unfinished:     r.Unfinished,
		MakespanS:      r.DurationS,
		LatencyMeanS:   r.LatencyMeanS,
		LatencyP50S:    r.LatencyP50S,
		LatencyP90S:    r.LatencyP90S,
		LatencyP99S:    r.LatencyP99S,
		LatencyMaxS:    r.LatencyMaxS,
		FleetEnergyJ:   r.FleetEnergyJ,
		AvgFleetW:      r.AvgFleetW,
		PeakFleetW:     r.PeakFleetW,
		ThrottleEvents: len(r.ThrottleEvents),
	}
	for _, d := range r.Devices {
		o.CapThrottledS += d.CapThrottledS
		o.ThermalThrottledS += d.ThermalThrottledS
		if d.MaxTempC > o.MaxTempC {
			o.MaxTempC = d.MaxTempC
		}
	}
	return o
}

// PolicyRunner adapts one fixed (config, trace) pair into the
// sched.Compare harness: each invocation replays the trace through the
// simulator under the handed policy and reduces the report to a front
// row. The config's own Policy field is ignored — Compare supplies the
// policy per run. Sharing one memoized Oracle in cfg across the
// comparison is safe and cheap: operating points depend only on keys,
// never on placement, so every policy sees identical physics.
//
// The runner copies and normalizes the trace once, when it is built,
// and its runs reuse their job-proportional buffers, so a warm
// comparison allocates per run rather than per job. It is safe for
// concurrent use; concurrent runs take separate buffers.
func PolicyRunner(cfg Config, trace *Trace) sched.Runner {
	t, err := normalizedCopy(trace)
	r := &policyRunner{cfg: cfg, trace: t, err: err}
	return r.run
}

// policyRunner is PolicyRunner's state: the normalized trace, or the
// error normalizing it, and the run buffers no run is using.
type policyRunner struct {
	cfg   Config
	trace *Trace
	err   error

	// spare is a free list, not a sync.Pool: a runner usually lives
	// for one comparison, too briefly for a pool to pay for itself.
	mu    sync.Mutex
	spare []*runBuffers
}

// run replays the trace under p with a buffer set no other run is
// using, and reduces the report to p's front row before releasing it.
func (r *policyRunner) run(ctx context.Context, p sched.Policy) (sched.Outcome, error) {
	if r.err != nil {
		return sched.Outcome{}, r.err
	}
	b := r.buffers()
	defer r.release(b)
	c := r.cfg
	c.Policy = p
	rep, err := replay(ctx, c, r.trace, b)
	if err != nil {
		return sched.Outcome{}, err
	}
	return rep.Outcome(p.Name()), nil
}

// buffers takes a spare buffer set, or a new one when every set is in
// use.
func (r *policyRunner) buffers() *runBuffers {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.spare)
	if n == 0 {
		return new(runBuffers)
	}
	b := r.spare[n-1]
	r.spare = r.spare[:n-1]
	return b
}

// release returns a buffer set once its run's report is reduced.
func (r *policyRunner) release(b *runBuffers) {
	r.mu.Lock()
	r.spare = append(r.spare, b)
	r.mu.Unlock()
}
