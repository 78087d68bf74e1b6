// Package telemetry reproduces the paper's measurement methodology
// (§III) on top of the simulated power model: a DCGM-like sampler that
// reads power every 100 ms, trimming of the first 500 ms of warm-up,
// per-VM-instance process variation of up to ±10 W, and a host-side
// high-resolution clock for iteration runtimes.
//
// The paper reports that power measurements occasionally shifted by up
// to 10 W when the Azure VM instance changed (attributed to process
// variation across GPUs) and that all experiments were therefore pinned
// to one instance; Config.VMInstance models exactly that — experiments
// run with a fixed instance by default.
package telemetry

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/rng"
)

// Paper methodology constants (§III).
const (
	// DCGMPeriodS is the paper's power sampling period (100 ms).
	DCGMPeriodS = 0.1
	// WarmupTrimS is the leading interval the paper discards (500 ms).
	WarmupTrimS = 0.5
	// MaxInstanceOffsetW is the largest instance-to-instance shift the
	// paper observed (±10 W).
	MaxInstanceOffsetW = 10.0
)

// warmupTauS is the thermal/power ramp time constant after the first
// kernel launch.
const warmupTauS = 0.12

// Config controls the synthetic measurement chain.
type Config struct {
	// VMInstance selects the GPU specimen; the process-variation power
	// offset is a deterministic function of it. Experiments pin this.
	VMInstance uint64
	// Seed drives measurement noise.
	Seed uint64
	// NoiseW is the standard deviation of per-sample measurement noise;
	// zero means the default 0.6 W. Negative disables noise.
	NoiseW float64
}

func (c Config) withDefaults() Config {
	if c.NoiseW == 0 {
		c.NoiseW = 0.6
	} else if c.NoiseW < 0 {
		c.NoiseW = 0
	}
	return c
}

// InstanceOffsetW returns the deterministic process-variation offset of
// a VM instance, in (-MaxInstanceOffsetW, +MaxInstanceOffsetW).
func InstanceOffsetW(instance uint64) float64 {
	u := rng.Derive(instance, "vm-instance-process-variation").Float64()
	return (2*u - 1) * MaxInstanceOffsetW
}

// Trace is a continuous synthetic power signal for a GEMM loop running
// on one VM instance.
type Trace struct {
	res    *power.Result
	cfg    Config
	offset float64
	noise  *rng.Source
	// noiseCache memoizes per-bucket noise so PowerAt is a pure
	// function of time.
	noiseCache map[int64]float64
}

// NewTrace builds the power signal for a steady-state operating point.
func NewTrace(res *power.Result, cfg Config) *Trace {
	cfg = cfg.withDefaults()
	return &Trace{
		res:        res,
		cfg:        cfg,
		offset:     InstanceOffsetW(cfg.VMInstance),
		noise:      rng.Derive(cfg.Seed, "dcgm-noise"),
		noiseCache: make(map[int64]float64),
	}
}

// PowerAt returns the instantaneous board power at time t seconds after
// the loop starts: an exponential warm-up ramp from idle toward the
// steady operating point, the instance offset, and banded measurement
// noise.
func (tr *Trace) PowerAt(t float64) float64 {
	if t < 0 {
		t = 0
	}
	idle := tr.res.Device.IdleWatts
	steady := tr.res.AvgPowerW + tr.offset
	p := idle + (steady-idle)*(1-math.Exp(-t/warmupTauS))
	return p + tr.noiseAt(t)
}

// noiseAt returns deterministic noise for the 10 ms bucket containing t.
func (tr *Trace) noiseAt(t float64) float64 {
	if tr.cfg.NoiseW == 0 {
		return 0
	}
	bucket := int64(t / 0.01)
	if v, ok := tr.noiseCache[bucket]; ok {
		return v
	}
	v := rng.Derive(tr.cfg.Seed^uint64(bucket)*0x9E3779B97F4A7C15, "noise-bucket").Gaussian(0, tr.cfg.NoiseW)
	tr.noiseCache[bucket] = v
	return v
}

// SamplePoint is one DCGM reading.
type SamplePoint struct {
	TimeS  float64
	PowerW float64
}

// Measurement is the paper-style reduction of one experiment run.
type Measurement struct {
	Samples []SamplePoint
	// AvgPowerW is the mean of samples after trimming the first
	// WarmupTrimS seconds, the paper's reported quantity.
	AvgPowerW float64
	// RawAvgPowerW includes the warm-up samples (for comparison).
	RawAvgPowerW float64
	// IterTimeS is the host-clock measured mean iteration time.
	IterTimeS float64
	// EnergyPerIterJ is AvgPowerW × IterTimeS, the paper's Fig. 2
	// quantity.
	EnergyPerIterJ float64
	// Iterations actually timed.
	Iterations int
	// BusyFrac is the DCGM utilization analogue.
	BusyFrac  float64
	Throttled bool
}

// Measure runs the sampler over a loop of the given iteration count at
// the operating point and reduces it the way the paper does.
func Measure(res *power.Result, iterations int, cfg Config) (*Measurement, error) {
	if iterations <= 0 {
		return nil, fmt.Errorf("telemetry: iterations must be positive")
	}
	cfg = cfg.withDefaults()
	tr := NewTrace(res, cfg)
	duration := float64(iterations) * res.IterTimeS

	var samples []SamplePoint
	for t := DCGMPeriodS; t <= duration; t += DCGMPeriodS {
		samples = append(samples, SamplePoint{TimeS: t, PowerW: tr.PowerAt(t)})
	}
	if len(samples) == 0 {
		// Runs shorter than one period still produce one reading at the
		// end of the loop.
		samples = append(samples, SamplePoint{TimeS: duration, PowerW: tr.PowerAt(duration)})
	}

	var sum, rawSum float64
	var kept int
	for _, s := range samples {
		rawSum += s.PowerW
		if s.TimeS >= WarmupTrimS {
			sum += s.PowerW
			kept++
		}
	}
	avg := 0.0
	if kept > 0 {
		avg = sum / float64(kept)
	} else {
		// The whole run fits inside the warm-up window; fall back to the
		// raw mean (the paper sized runs to avoid this).
		avg = rawSum / float64(len(samples))
	}

	iterTime := measuredIterTime(res, iterations, cfg)
	return &Measurement{
		Samples:        samples,
		AvgPowerW:      avg,
		RawAvgPowerW:   rawSum / float64(len(samples)),
		IterTimeS:      iterTime,
		EnergyPerIterJ: avg * iterTime,
		Iterations:     iterations,
		BusyFrac:       res.BusyFrac,
		Throttled:      res.Throttled,
	}, nil
}

// measuredIterTime models the host high-resolution-clock measurement:
// total elapsed divided by iterations, with sub-microsecond scheduling
// jitter. The paper observes iteration runtimes consistent to the
// microsecond across experiments of a datatype.
func measuredIterTime(res *power.Result, iterations int, cfg Config) float64 {
	jitter := rng.Derive(cfg.Seed, "clock-jitter").Gaussian(0, 0.2e-6)
	t := res.IterTimeS + jitter/float64(iterations)
	if t < 0 {
		t = res.IterTimeS
	}
	return t
}

// RecommendedIterations returns an iteration count giving roughly the
// paper's measurement duration: the paper ran 10k iterations (20k for
// FP16-T) so that each experiment spans several seconds of sampling.
func RecommendedIterations(res *power.Result) int {
	const targetS = 3.0
	n := int(targetS / res.IterTimeS)
	if n < 100 {
		n = 100
	}
	return n
}
