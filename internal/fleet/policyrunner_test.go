package fleet

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/sched"
)

// compareFleet is the fleet a policy comparison runs on in
// BenchmarkCompare and the tests below: four A100s under a 300 W cap.
func compareFleet(oracle Oracle) Config {
	a := device.A100PCIe
	return Config{Devices: []*device.Device{a(), a(), a(), a()}, Oracle: oracle, PowerCapW: 300}
}

// compareTrace is an n-job seed-1 synthetic trace in fleetsim's
// default mix: 200 jobs/s, sizes 128, 256 and 512. A shorter trace is
// a longer one's first jobs.
func compareTrace(tb testing.TB, n int) *Trace {
	tb.Helper()
	tr, err := Synthetic(SyntheticConfig{Jobs: n, RatePerS: 200, Seed: 1, Sizes: []int{128, 256, 512}})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestPolicyRunnerAllocatesPerRun holds a warm comparison to
// allocating per run, not per job: a Compare of every policy over 512
// jobs may allocate at most 200 objects more than one over its first
// 64 jobs.
func TestPolicyRunnerAllocatesPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cfg := compareFleet(NewModelOracle())
	allocs := func(n int) float64 {
		trace := compareTrace(t, n)
		// AllocsPerRun's warm-up call fills the oracle.
		return testing.AllocsPerRun(3, func() {
			if _, err := sched.Compare(context.Background(), PolicyRunner(cfg, trace), sched.All()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(512)
	if large-small > 200 {
		t.Errorf("a 512-job Compare allocates %.0f objects, %.0f more than a 64-job one (%.0f); want at most 200 more",
			large, large-small, small)
	}
}

// TestPolicyRunnerConcurrentCallers has two goroutines share one
// runner; each must get the front sequential calls get.
func TestPolicyRunnerConcurrentCallers(t *testing.T) {
	ctx := context.Background()
	run := PolicyRunner(Config{Devices: testFleet(), Oracle: smallOracle(), PowerCapW: 500}, testTrace(t))
	want, err := sched.Compare(ctx, run, sched.All())
	if err != nil {
		t.Fatal(err)
	}
	var fronts [2]*sched.Front
	var errs [2]error
	var wg sync.WaitGroup
	for g := range fronts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fronts[g], errs[g] = sched.Compare(ctx, run, sched.All())
		}()
	}
	wg.Wait()
	for g, f := range fronts {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(f, want) {
			t.Errorf("caller %d's front differs from the sequential one:\n got: %+v\nwant: %+v", g, f, want)
		}
	}
}
