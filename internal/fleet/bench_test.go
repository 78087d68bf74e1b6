package fleet

import (
	"context"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/sched"
)

// BenchmarkFleetRun times a full deterministic fleet simulation —
// synthetic trace generation, oracle resolution (memoized model
// oracle) and the tick loop. CI's bench smoke records it in the
// BENCH_<sha>.json artifact; cmd/benchdiff's default filter does not
// gate it.
func BenchmarkFleetRun(b *testing.B) {
	trace, err := Synthetic(SyntheticConfig{
		Jobs:          64,
		RatePerS:      400,
		Seed:          7,
		DTypes:        []string{"FP16"},
		Patterns:      []string{"gaussian(default)", "constant(7)"},
		Sizes:         []int{128, 256},
		MinIterations: 2000,
		MaxIterations: 8000,
	})
	if err != nil {
		b.Fatal(err)
	}
	// One shared oracle: after the first iteration every key is
	// memoized, so steady-state iterations time the scheduler and
	// integrator, not the simulation chain.
	oracle := &ModelOracle{SampleOutputs: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{
			Devices:   testFleet(),
			Oracle:    oracle,
			PowerCapW: 500,
		}, trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedule times the same capped fleet simulation under each
// placement policy, one sub-benchmark per policy. CI records it in the
// BENCH_<sha>.json artifact; cmd/benchdiff's default filter does not
// gate it.
func BenchmarkSchedule(b *testing.B) {
	trace, err := Synthetic(SyntheticConfig{
		Jobs:          64,
		RatePerS:      400,
		Seed:          7,
		DTypes:        []string{"FP16"},
		Patterns:      []string{"gaussian(default)", "constant(7)"},
		Sizes:         []int{128, 256},
		MinIterations: 2000,
		MaxIterations: 8000,
	})
	if err != nil {
		b.Fatal(err)
	}
	oracle := &ModelOracle{SampleOutputs: 64}
	// Warm the oracle once so every policy's sub-benchmark times the
	// scheduler and integrator, not the first policy paying the whole
	// simulation-chain fill.
	if _, err := Run(context.Background(), Config{
		Devices:   testFleet(),
		Oracle:    oracle,
		PowerCapW: 500,
	}, trace); err != nil {
		b.Fatal(err)
	}
	for _, p := range sched.All() {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), Config{
					Devices:   testFleet(),
					Oracle:    oracle,
					Policy:    p,
					PowerCapW: 500,
				}, trace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineTick times the engine's integration loop with almost
// nothing else: four A100s under a 300 W cap each run one 4 M-iteration
// FP16 gaussian(default) 256² job, about 65 k ticks of 1 ms, and the
// oracle is warmed before the timer. It reports ns/tick, the fleet
// tick rung of the benchmark ladder. CI's bench smoke records it in
// the BENCH_<sha>.json artifact; cmd/benchdiff's default filter does
// not gate it.
func BenchmarkEngineTick(b *testing.B) {
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{DType: "FP16", Pattern: "gaussian(default)", Size: 256, Iterations: 4_000_000}
	}
	trace := &Trace{Jobs: jobs}
	cfg := Config{
		Devices:   []*device.Device{device.A100PCIe(), device.A100PCIe(), device.A100PCIe(), device.A100PCIe()},
		Oracle:    NewModelOracle(),
		PowerCapW: 300,
	}
	r, err := Run(context.Background(), cfg, trace)
	if err != nil {
		b.Fatal(err)
	}
	ticks := math.Round(r.DurationS / 1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), cfg, trace); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*ticks), "ns/tick")
}

// BenchmarkCompare times one comparison of every sched.All() policy
// through PolicyRunner, as fleetsim -compare runs it: a 512-job
// synthetic trace (200 jobs/s, sizes 128/256/512) over four A100s
// under a 300 W cap, with the oracle warmed before the timer starts.
// CI's bench smoke records it, with its allocations, in the
// BENCH_<sha>.json artifact; cmd/benchdiff's default filter does not
// gate it.
func BenchmarkCompare(b *testing.B) {
	cfg := compareFleet(NewModelOracle())
	trace := compareTrace(b, 512)
	compare := func() {
		if _, err := sched.Compare(context.Background(), PolicyRunner(cfg, trace), sched.All()); err != nil {
			b.Fatal(err)
		}
	}
	compare()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compare()
	}
}
