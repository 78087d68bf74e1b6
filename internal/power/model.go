// Package power converts a GEMM switching-activity profile into watts
// on a simulated device: a switched-capacitance dynamic-power model on
// top of a static floor, with wave-quantized utilization, TDP power
// capping and thermal DVFS throttling.
//
// This is the substitution for the paper's physical measurement chain
// (A100 board sensors read by DCGM): instead of measuring the effect of
// bit flips on a real VRM, the model implements the paper's §V
// hypothesis directly — energy per event × number of toggle/partial-
// product events — so that every input-pattern trend in the paper
// emerges from its hypothesized cause.
package power

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

// Breakdown decomposes average kernel power into components, in watts.
type Breakdown struct {
	StaticW  float64 // leakage, board, memory refresh
	IssueW   float64 // data-independent issue/control/clocking
	OperandW float64 // operand-latch toggles
	MultW    float64 // multiplier partial products
	ProductW float64 // product-register toggles
	AccumW   float64 // accumulator-register toggles
	StreamW  float64 // DRAM/L2/SMEM streaming toggles
}

// DynamicW returns the sum of all data-dependent components.
func (b Breakdown) DynamicW() float64 {
	return b.OperandW + b.MultW + b.ProductW + b.AccumW + b.StreamW
}

// TotalW returns the full kernel-active power.
// Only tests call it: TestBreakdownSumsToAvgPower.
func (b Breakdown) TotalW() float64 {
	return b.StaticW + b.IssueW + b.DynamicW()
}

// ThrottleReason identifies which limiter engaged, if any.
type ThrottleReason string

const (
	// NoThrottle means the kernel ran at full clocks.
	NoThrottle ThrottleReason = ""
	// ThrottleTDP means the board power limit capped sustained power.
	ThrottleTDP ThrottleReason = "tdp"
	// ThrottleThermal means the die temperature limit engaged first.
	ThrottleThermal ThrottleReason = "thermal"
)

// Result is the simulated steady-state operating point of a GEMM loop.
type Result struct {
	Device  *device.Device
	DType   matrix.DType
	N, K, M int

	Tiles       int
	Waves       int
	Utilization float64

	// KernelTimeS is the per-iteration kernel execution time after any
	// throttling; IterTimeS adds the launch gap (what a host-side clock
	// measures per iteration).
	KernelTimeS float64
	IterTimeS   float64
	BusyFrac    float64

	// KernelPowerW is the average power while the kernel is resident;
	// AvgPowerW is duty-weighted over launch gaps — the number a 100 ms
	// DCGM sampler converges to.
	KernelPowerW   float64
	AvgPowerW      float64
	EnergyPerIterJ float64
	PerMACEnergyPJ float64

	Throttled   bool
	Reason      ThrottleReason
	ClockScale  float64
	SteadyTempC float64

	// MemBound reports that the roofline memory floor, not the MAC
	// pipeline, sets the kernel time (short-K or skinny GEMMs); power
	// is correspondingly lower because compute units idle on operands.
	MemBound bool
	// MemTimeS is the once-through DRAM traffic time.
	MemTimeS float64

	Breakdown Breakdown
}

// Evaluate computes the operating point for a problem and its activity
// report on the given device.
func Evaluate(dev *device.Device, p *kernels.Problem, rep *activity.Report) (*Result, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	coeff, ok := dev.Energy[p.DType]
	if !ok {
		return nil, fmt.Errorf("power: device %s has no coefficients for %v", dev.Name, p.DType)
	}

	n, k, m := p.Dims()
	tiles := p.Tile.NumTiles(n, m)
	waves := kernels.Waves(tiles, dev.SMCount)
	util := kernels.Utilization(tiles, dev.SMCount)

	// Nominal kernel time from the wave model: every wave takes one
	// full tile's worth of MACs at the per-SM rate, regardless of how
	// full the tail wave is (that is the quantization).
	tWave := float64(p.Tile.BlockM) * float64(p.Tile.BlockN) * float64(k) / dev.SMMACRate(p.DType)
	tCompute := float64(waves) * tWave

	// Roofline memory floor: each operand is read and the output written
	// once through DRAM (the L2 absorbs intra-kernel tile re-reads).
	// Large square GEMMs are far above the ridge point; short-K and
	// skinny shapes fall below it and become memory-bound.
	bytesMoved := float64(n*k+k*m+n*m) * float64(p.DType.Width()) / 8
	tMem := bytesMoved / (dev.MemBWGBs * 1e9)
	tNominal := tCompute
	memBound := tMem > tCompute
	if memBound {
		tNominal = tMem
	}

	// Per-iteration energies, picojoules.
	macs := float64(rep.MACs)
	issuePJ := coeff.IssuePJ * macs
	operandPJ := coeff.OperandPJPerToggle * float64(rep.OperandToggles)
	multPJ := coeff.MultPJPerPP * float64(rep.MultPPUnits)
	productPJ := coeff.ProductPJPerToggle * rep.ProductToggles
	accumPJ := coeff.AccumPJPerToggle * rep.AccumToggles
	streamPJ := dev.StreamPJPerToggle * float64(rep.StreamToggles)
	dynamicPJ := issuePJ + operandPJ + multPJ + productPJ + accumPJ + streamPJ

	dynamicJ := dynamicPJ * 1e-12
	kernelPower := dev.IdleWatts + dynamicJ/tNominal

	// Power governor: sustained kernel power is capped at the lower of
	// the TDP limit and the thermal throttle point by scaling clocks.
	// Dynamic power scales with frequency (activity per second), so the
	// fixed per-iteration energy spreads over a longer runtime.
	cap := dev.TDPWatts
	reason := ThrottleTDP
	if tp := dev.Thermal.ThrottlePowerW(); tp < cap {
		cap = tp
		reason = ThrottleThermal
	}
	clockScale := 1.0
	throttled := false
	if kernelPower > cap {
		throttled = true
		clockScale = (cap - dev.IdleWatts) / (kernelPower - dev.IdleWatts)
		kernelPower = cap
	} else {
		reason = NoThrottle
	}
	tKernel := tNominal / clockScale

	iterTime := tKernel + dev.LaunchOverheadS
	busy := tKernel / iterTime
	avgPower := dev.IdleWatts + busy*(kernelPower-dev.IdleWatts)

	scale := busy * clockScale / tNominal // converts pJ/iter to W contribution
	res := &Result{
		Device:         dev,
		DType:          p.DType,
		N:              n,
		K:              k,
		M:              m,
		Tiles:          tiles,
		Waves:          waves,
		Utilization:    util,
		KernelTimeS:    tKernel,
		IterTimeS:      iterTime,
		BusyFrac:       busy,
		KernelPowerW:   kernelPower,
		AvgPowerW:      avgPower,
		EnergyPerIterJ: avgPower * iterTime,
		PerMACEnergyPJ: dynamicPJ / macs,
		Throttled:      throttled,
		Reason:         reason,
		ClockScale:     clockScale,
		SteadyTempC:    dev.Thermal.SteadyTempC(avgPower),
		MemBound:       memBound,
		MemTimeS:       tMem,
		Breakdown: Breakdown{
			StaticW:  dev.IdleWatts,
			IssueW:   issuePJ * 1e-12 * scale,
			OperandW: operandPJ * 1e-12 * scale,
			MultW:    multPJ * 1e-12 * scale,
			ProductW: productPJ * 1e-12 * scale,
			AccumW:   accumPJ * 1e-12 * scale,
			StreamW:  streamPJ * 1e-12 * scale,
		},
	}
	return res, nil
}
