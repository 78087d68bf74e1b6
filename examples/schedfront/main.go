// Scheduling-front walkthrough: what a power-aware placement policy,
// and looking ahead, buy at fleet scale.
//
// One mixed-encoding GEMM stream — power-hungry dense/random inputs
// interleaved with cheap-bit encodings (constant, sparse, sorted,
// LSB-zeroed) — replays through every built-in scheduling policy on a
// capped 4×A100 fleet. The simulator is deterministic, so the table is
// an exact A/B front: every difference between rows is caused by
// placement alone.
//
//   - EarliestCompletion chases latency and piles hot jobs onto the
//     fleet concurrently, so the aggregate cap governor fires.
//   - PowerPack packs jobs by the fleet's instantaneous dynamic power,
//     serializing the hot ones: cap-throttle events drop to zero for a
//     makespan price.
//   - ThermalSpread and EnergyGreedy trace intermediate points.
//   - PredictiveHorizon projects every instance's committed power
//     timeline over the next 30 s and defers a job only as long as its
//     demand would breach the cap within that window: it matches
//     PowerPack's zero throttle events at a fraction of its makespan.
//
// The same rows come from:
//
//	fleetsim -compare EarliestCompletion,PowerPack,ThermalSpread,EnergyGreedy \
//	  -devices "A100-PCIe-40GB:4" -cap 310 -sizes 512 ...
//	fleetsim -compare EarliestCompletion,PowerPack,PredictiveHorizon \
//	  -devices "A100-PCIe-40GB:4" -cap 310 -window 30 -sizes 512 ...
//
// and CI pins them as .github/testdata/sched-front.csv and
// horizon-front.csv.
//
//	go run ./examples/schedfront
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/sched"
)

func main() {
	trace, err := fleet.Synthetic(fleet.SyntheticConfig{
		Jobs:     96,
		RatePerS: 300,
		Seed:     42,
		DTypes:   []string{"FP16", "FP16-T", "INT8"},
		Patterns: []string{
			// Hot encodings: dense Gaussian activity, the power-hungry
			// end of the paper's §IV axes.
			"gaussian(default)",
			"gaussian(mean=500, std=1)",
			// Cheap-bit encodings: the same kernel shapes at lower
			// toggle activity.
			"constant(7)",
			"gaussian(default) | sparsify(75%)",
			"gaussian(default) | sort(rows, 100%)",
			"gaussian(default) | zerolsb(8)",
		},
		Sizes: []int{512},
	})
	if err != nil {
		log.Fatalf("schedfront: %v", err)
	}

	// Cap sized between the fleet's idle floor (4×55 W) and its
	// uncapped mixed-stream peak (~350 W): hot jobs running
	// concurrently breach it, serialized hot jobs do not.
	cfg := fleet.Config{
		Devices: []*device.Device{
			device.A100PCIe(), device.A100PCIe(), device.A100PCIe(), device.A100PCIe(),
		},
		Oracle:    &fleet.ModelOracle{SampleOutputs: 128},
		PowerCapW: 310,
	}

	fmt.Println("schedfront: 96 mixed-encoding jobs (512² GEMMs, FP16/FP16-T/INT8) on 4×A100 under a 310 W cap")
	fmt.Println()

	front, err := sched.Compare(context.Background(), fleet.PolicyRunner(cfg, trace), sched.All())
	if err != nil {
		log.Fatalf("schedfront: %v", err)
	}

	fmt.Printf("%-20s %9s %9s %9s %9s %7s %10s\n",
		"policy", "makespan", "p99 lat", "energy", "avg W", "events", "capped s")
	for _, o := range front.Outcomes {
		fmt.Printf("%-20s %8.2fs %8.2fs %8.0fJ %9.1f %7d %9.3fs\n",
			o.Policy, o.MakespanS, o.LatencyP99S, o.FleetEnergyJ, o.AvgFleetW, o.ThrottleEvents, o.CapThrottledS)
	}
	fmt.Println()

	ec, _ := front.ByPolicy("EarliestCompletion")
	pp, _ := front.ByPolicy("PowerPack")
	if pp.ThrottleEvents >= ec.ThrottleEvents {
		fmt.Fprintf(os.Stderr, "schedfront: expected PowerPack (%d events) to throttle less than EarliestCompletion (%d)\n",
			pp.ThrottleEvents, ec.ThrottleEvents)
		os.Exit(1)
	}
	fmt.Printf("PowerPack eliminated %d of %d cap-throttle events (%.3fs of capped device time)\n",
		ec.ThrottleEvents-pp.ThrottleEvents, ec.ThrottleEvents, ec.CapThrottledS-pp.CapThrottledS)
	fmt.Printf("the price is makespan: %.2fs vs %.2fs (%.1f×) — the exact front an operator chooses on\n",
		pp.MakespanS, ec.MakespanS, pp.MakespanS/ec.MakespanS)

	ph, _ := front.ByPolicy("PredictiveHorizon")
	if ph.ThrottleEvents > pp.ThrottleEvents || ph.MakespanS >= pp.MakespanS {
		fmt.Fprintf(os.Stderr, "schedfront: expected PredictiveHorizon (%d events, %.2fs) to dominate PowerPack (%d events, %.2fs)\n",
			ph.ThrottleEvents, ph.MakespanS, pp.ThrottleEvents, pp.MakespanS)
		os.Exit(1)
	}
	fmt.Printf("PredictiveHorizon holds PowerPack's throttle count (%d vs %d) at %.2fs makespan: %.1f× faster than PowerPack, within %.1f× of EarliestCompletion\n",
		ph.ThrottleEvents, pp.ThrottleEvents, ph.MakespanS, pp.MakespanS/ph.MakespanS, ph.MakespanS/ec.MakespanS)
}
