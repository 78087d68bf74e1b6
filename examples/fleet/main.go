// Fleet walkthrough: the paper's input-dependent power effect at
// datacenter scale.
//
// A mixed GEMM job stream runs on a small heterogeneous fleet three
// times:
//
//  1. uncapped, with input patterns that toggle many bits (the
//     power-hungry end of the paper's §IV axes),
//  2. the same stream with bit-cheap input encodings (sparse, sorted,
//     LSB-zeroed) — same kernel shapes, same schedule, lower watts,
//  3. the expensive stream again under an aggregate power cap sized to
//     the cheap stream's peak, showing what the operator pays in
//     latency for provisioning to the cheap number.
//
// Operating points are resolved through an in-process serving instance
// and its batched prediction path, so the console also shows the
// coalescing economics: thousands of job lookups, a handful of
// simulations.
//
//	go run ./examples/fleet
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/serve"
)

func main() {
	devs := []*device.Device{
		device.A100PCIe(), device.A100PCIe(), device.A100PCIe(),
		device.H100SXM(),
	}

	// One serving instance answers every run through /predict/batch
	// semantics; its LRU carries across runs, so repeated keys are
	// free the second time too.
	srv := serve.NewCore(serve.Config{})
	defer srv.Close()
	oracle := fleet.BackendOracle(srv)

	expensive := []string{
		"gaussian(default)",
		"gaussian(mean=500, std=1)",
		"constant(random)",
	}
	cheap := []string{
		"gaussian(default) | sparsify(75%)",
		"gaussian(default) | sort(rows, 100%)",
		"gaussian(default) | zerolsb(8)",
	}

	base := fleet.SyntheticConfig{
		Jobs:     192,
		RatePerS: 150,
		Seed:     42,
		DTypes:   []string{"FP16", "FP16-T", "INT8"},
		Sizes:    []int{256, 512},
	}

	fmt.Println("fleet: 3×A100 + 1×H100, 192 jobs, sizes 256/512, FP16/FP16-T/INT8")
	fmt.Println()

	hot := runOnce(devs, oracle, base, expensive, 0)
	show("dense/random inputs, uncapped", hot)

	cold := runOnce(devs, oracle, base, cheap, 0)
	show("sparse/sorted/zeroed inputs, uncapped", cold)

	fmt.Printf("input encoding alone moved the fleet average by %.0f W (%.1f%%)\n\n",
		hot.AvgFleetW-cold.AvgFleetW, 100*(hot.AvgFleetW-cold.AvgFleetW)/hot.AvgFleetW)

	// Provision for the cheap stream, then run the expensive one.
	capW := cold.PeakFleetW
	capped := runOnce(devs, oracle, base, expensive, capW)
	show(fmt.Sprintf("dense/random inputs under a %.0f W cap", capW), capped)

	capEvents := 0
	for _, ev := range capped.ThrottleEvents {
		if ev.Reason == "cap" {
			capEvents++
		}
	}
	fmt.Printf("capping to the cheap stream's peak cost %.0f%% extra makespan and %d throttle events\n",
		100*(capped.DurationS-hot.DurationS)/hot.DurationS, capEvents)

	// The oracle outlives the runs, so the last report's lookup counts
	// cover all three.
	st := capped.Oracle
	fmt.Printf("\nbatched prediction: %d job lookups resolved by %d distinct simulations (%.1f× coalescing)\n",
		st.Lookups, st.Distinct, float64(st.Lookups)/float64(st.Distinct))
}

func runOnce(devs []*device.Device, oracle fleet.Oracle, base fleet.SyntheticConfig, pats []string, capW float64) *fleet.Report {
	cfg := base
	cfg.Patterns = pats
	trace, err := fleet.Synthetic(cfg)
	if err != nil {
		log.Fatalf("fleet example: %v", err)
	}
	r, err := fleet.Run(context.Background(), fleet.Config{
		Devices:   devs,
		Oracle:    oracle,
		PowerCapW: capW,
	}, trace)
	if err != nil {
		log.Fatalf("fleet example: %v", err)
	}
	return r
}

func show(label string, r *fleet.Report) {
	fmt.Printf("%s:\n", label)
	fmt.Printf("  makespan %.2fs, fleet avg %.0f W, peak %.0f W, energy %.0f J\n",
		r.DurationS, r.AvgFleetW, r.PeakFleetW, r.FleetEnergyJ)
	fmt.Printf("  latency p50/p90/p99 = %.3f/%.3f/%.3f s, %d throttle events\n",
		r.LatencyP50S, r.LatencyP90S, r.LatencyP99S, len(r.ThrottleEvents))
	for _, d := range r.Devices {
		fmt.Printf("  %-22s %3d jobs, util %4.0f%%, avg %.0f W, max %.1f °C\n",
			d.Device, d.JobsRun, 100*d.UtilizationFrac, d.AvgPowerW, d.MaxTempC)
	}
	fmt.Println()
}
