package fleet

import (
	"context"
	"testing"

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
