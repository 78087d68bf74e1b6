// Command dcgmsim emulates the paper's measurement loop: it "runs" a
// GEMM kernel in a loop on the simulated GPU and prints DCGM-style
// power samples every 100 ms, followed by the paper-style reduction
// (trimmed mean, iteration runtime, energy).
//
// Usage:
//
//	dcgmsim -pattern "gaussian(default)" -dtype FP16 -size 2048 -duration 3
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

func main() {
	var (
		dsl      = flag.String("pattern", "gaussian(default)", "input pattern DSL")
		dtype    = flag.String("dtype", "FP16", "datatype (FP32, FP16, FP16-T, INT8)")
		devName  = flag.String("device", "A100-PCIe-40GB", "device preset name")
		size     = flag.Int("size", 2048, "square matrix dimension")
		duration = flag.Float64("duration", 3, "loop duration in simulated seconds")
		seed     = flag.Uint64("seed", 1, "input seed")
		instance = flag.Uint64("vm", 1, "VM instance id (process variation)")
	)
	flag.Parse()

	dev := device.ByName(*devName)
	if dev == nil {
		fatalf("unknown device %q", *devName)
	}
	dt, ok := matrix.ParseDType(*dtype)
	if !ok {
		fatalf("unknown dtype %q", *dtype)
	}
	pat, err := patterns.Parse(*dsl)
	if err != nil {
		fatalf("%v", err)
	}

	a := matrix.New(dt, *size, *size)
	b := matrix.New(dt, *size, *size)
	pat.Apply(a, rng.Derive(*seed, "A"))
	pat.Apply(b, rng.Derive(*seed, "B"))
	ch, err := core.RunChain(dev, dt, a, b, core.ChainSpec{TransposeB: true})
	if err != nil {
		fatalf("%v", err)
	}
	res := ch.Power
	iters := int(*duration / res.IterTimeS)
	if iters < 1 {
		iters = 1
	}
	meas, err := telemetry.Measure(res, iters, telemetry.Config{
		VMInstance: *instance,
		Seed:       *seed,
	})
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("# dcgmsim: %s, %v, %dx%d GEMM, pattern %s\n", dev.Name, dt, *size, *size, pat.Name)
	fmt.Printf("# %d iterations, %.3f s simulated, sampling every %.0f ms\n",
		iters, float64(iters)*res.IterTimeS, telemetry.DCGMPeriodS*1000)
	fmt.Printf("#%9s %12s\n", "time(s)", "power(W)")
	for _, s := range meas.Samples {
		marker := ""
		if s.TimeS < telemetry.WarmupTrimS {
			marker = "  (warmup, trimmed)"
		}
		fmt.Printf("%10.1f %12.1f%s\n", s.TimeS, s.PowerW, marker)
	}
	fmt.Printf("\navg power (trimmed) : %.1f W\n", meas.AvgPowerW)
	fmt.Printf("avg power (raw)     : %.1f W\n", meas.RawAvgPowerW)
	fmt.Printf("iteration runtime   : %.1f µs\n", meas.IterTimeS*1e6)
	fmt.Printf("energy/iteration    : %.4f J\n", meas.EnergyPerIterJ)
	fmt.Printf("gpu busy            : %.1f%%\n", meas.BusyFrac*100)
	if meas.Throttled {
		fmt.Printf("throttled           : yes (%s limiter, clocks at %.0f%%)\n",
			res.Reason, res.ClockScale*100)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dcgmsim: "+format+"\n", args...)
	os.Exit(1)
}
