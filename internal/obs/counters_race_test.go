package obs

// Concurrency hammer for MetricSet: counters, gauges and histograms
// bashed from many goroutines. Run under -race (CI's test job does)
// this pins the lock-free hot paths and the lazily-created map
// entries; the totals are asserted exactly, so lost updates fail even
// without the race detector.

import (
	"sync"
	"testing"
)

func TestMetricSetConcurrentHammer(t *testing.T) {
	m := NewMetricSet()
	const workers = 16
	const perWorker = 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Same names from every goroutine: the lazy map inserts
				// and the atomic bumps must both be safe.
				m.Counter("hammer.events").Inc()
				m.Counter("hammer.bytes").Add(3)
				g := m.Gauge("hammer.depth")
				g.Inc()
				m.Histogram("hammer.latency").Observe(int64(i))
				m.ValueHistogram("hammer.width").Observe(int64(i % 32))
				g.Dec()
				if i%64 == 0 {
					_ = m.Snapshot()
					_ = m.HistogramSnapshots()
					_ = m.PromSnapshot()
				}
			}
		}()
	}
	wg.Wait()

	snap := m.Snapshot()
	if got := snap["hammer.events"]; got != workers*perWorker {
		t.Errorf("hammer.events = %d, want %d", got, workers*perWorker)
	}
	if got := snap["hammer.bytes"]; got != 3*workers*perWorker {
		t.Errorf("hammer.bytes = %d, want %d", got, 3*workers*perWorker)
	}
	if got := snap["hammer.depth"]; got != 0 {
		t.Errorf("hammer.depth = %d, want 0 after balanced inc/dec", got)
	}
	if max := snap["hammer.depth.max"]; max < 1 || max > workers {
		t.Errorf("hammer.depth.max = %d, want within [1, %d]", max, workers)
	}
	// Histograms stay out of the flat snapshot (JSON /metrics bytes are
	// pinned by equivalence suites) and fully present in their own.
	if _, leaked := snap["hammer.latency"]; leaked {
		t.Error("histogram leaked into Snapshot — JSON /metrics bytes would change")
	}
	hists := m.HistogramSnapshots()
	if got := hists["hammer.latency"].Count; got != workers*perWorker {
		t.Errorf("hammer.latency count = %d, want %d", got, workers*perWorker)
	}
	if got := hists["hammer.width"].Count; got != workers*perWorker {
		t.Errorf("hammer.width count = %d, want %d", got, workers*perWorker)
	}
	if s := hists["hammer.latency"].Scale; s != 1e9 {
		t.Errorf("Histogram scale = %v, want 1e9 (latency)", s)
	}
	if s := hists["hammer.width"].Scale; s != 1 {
		t.Errorf("ValueHistogram scale = %v, want 1", s)
	}

	prom := m.PromSnapshot()
	if prom.Counters["hammer.events"] != workers*perWorker {
		t.Error("PromSnapshot counters disagree with Snapshot")
	}
	if _, ok := prom.Gauges["hammer.depth.max"]; !ok {
		t.Error("PromSnapshot missing gauge high-water entry")
	}
}
