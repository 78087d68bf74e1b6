// Command gemmpower runs one of the paper's experiments (or an ad-hoc
// pattern) and prints the resulting power table.
//
// Usage:
//
//	gemmpower -figure fig6a -size 512 -seeds 3
//	gemmpower -pattern "gaussian(default) | sort(rows, 50%)" -dtype FP16 -size 1024
//	gemmpower -list
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/matrix"
	"repro/internal/patterns"
)

func main() {
	var (
		figure  = flag.String("figure", "", "experiment ID to run (fig1..fig6d); see -list")
		pattern = flag.String("pattern", "", "ad-hoc pattern DSL to measure instead of a figure")
		dtype   = flag.String("dtype", "FP16", "datatype for -pattern (FP32, FP16, FP16-T, INT8)")
		devName = flag.String("device", "A100-PCIe-40GB", "device preset name")
		size    = flag.Int("size", 2048, "square matrix dimension")
		seeds   = flag.Int("seeds", 10, "seeds to average over")
		samples = flag.Int("samples", 256, "sampled accumulator trajectories per run")
		seed    = flag.Uint64("seed", 1, "base seed for -pattern runs")
		csvOut  = flag.Bool("csv", false, "emit CSV instead of a table (figure mode)")
		list    = flag.Bool("list", false, "list available experiments and devices")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, e := range experiments.Figures() {
			fmt.Printf("  %-7s %s\n", e.ID, e.Title)
		}
		fmt.Println("devices:")
		for _, d := range device.All() {
			fmt.Printf("  %-20s %s, %d SMs, TDP %.0fW, %s\n",
				d.Name, d.Architecture, d.SMCount, d.TDPWatts, d.MemoryType)
		}
		return
	}

	dev := device.ByName(*devName)
	if dev == nil {
		fatalf("unknown device %q (use -list)", *devName)
	}

	switch {
	case *pattern != "":
		runPattern(dev, *pattern, *dtype, *size, *samples, *seed)
	case *figure != "":
		runFigure(dev, *figure, *size, *seeds, *samples, *csvOut)
	default:
		fatalf("one of -figure or -pattern is required (use -list to see figures)")
	}
}

func runFigure(dev *device.Device, id string, size, seeds, samples int, csvOut bool) {
	exp, ok := experiments.Get(id)
	if !ok {
		fatalf("unknown experiment %q (use -list)", id)
	}
	cfg := experiments.Default()
	cfg.Device = dev
	cfg.Size = size
	cfg.Seeds = seeds
	cfg.SampleOutputs = samples
	fr, err := experiments.Run(exp, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if csvOut {
		if err := experiments.WriteCSV(os.Stdout, fr); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if id == "fig1" || id == "fig2" {
		fmt.Print(experiments.FormatRuntimeTable(fr))
		return
	}
	fmt.Print(experiments.FormatFigure(fr))
}

func runPattern(dev *device.Device, dsl, dtype string, size, samples int, seed uint64) {
	dt, ok := matrix.ParseDType(dtype)
	if !ok {
		fatalf("unknown dtype %q", dtype)
	}
	pat, err := patterns.Parse(dsl)
	if err != nil {
		fatalf("%v", err)
	}
	sim, err := core.NewSimulator(dev)
	if err != nil {
		fatalf("%v", err)
	}
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.SampleOutputs = samples
	m, err := sim.MeasurePattern(dt, size, pat, opts)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("pattern   : %s\n", pat.Name)
	fmt.Printf("device    : %s   dtype: %v   size: %d\n", dev.Name, dt, size)
	fmt.Printf("power     : %.1f W (model %.1f W)\n", m.AvgPowerW, m.ModelPowerW)
	fmt.Printf("iter time : %.1f µs   energy/iter: %.4f J   busy: %.1f%%\n",
		m.IterTimeS*1e6, m.EnergyPerIterJ, m.BusyFrac*100)
	fmt.Printf("breakdown : static %.1f | issue %.1f | operand %.1f | mult %.1f | product %.1f | accum %.1f | stream %.1f (W)\n",
		m.Breakdown.StaticW, m.Breakdown.IssueW, m.Breakdown.OperandW,
		m.Breakdown.MultW, m.Breakdown.ProductW, m.Breakdown.AccumW, m.Breakdown.StreamW)
	if m.Throttled {
		fmt.Printf("throttled : yes (steady temp %.1f °C)\n", m.SteadyTempC)
	}
	pm := m.Activity.PerMAC()
	fmt.Printf("activity  : %.2f operand toggles/MAC, %.2f PP units/MAC, alignment %.3f, HW(A) %.2f\n",
		pm.OperandToggles, pm.MultPPUnits, m.Activity.MeanAlignment, m.Activity.MeanHammingA)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gemmpower: "+format+"\n", args...)
	os.Exit(1)
}
