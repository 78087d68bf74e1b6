package obs

import (
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Add(5)
	g.Add(3)
	g.Add(-6)
	if got := g.Load(); got != 2 {
		t.Errorf("level = %d, want 2", got)
	}
	if got := g.HighWater(); got != 8 {
		t.Errorf("high water = %d, want 8", got)
	}
}

func TestGaugeHighWaterConcurrent(t *testing.T) {
	// The high-water mark must capture the peak of overlapping
	// inc/dec pairs: with 16 goroutines each holding the gauge raised
	// at some point, the mark must end at least 1 and at most 16, and
	// the level must return to zero.
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != 0 {
		t.Errorf("level = %d, want 0 after balanced inc/dec", got)
	}
	if hw := g.HighWater(); hw < 1 || hw > 16 {
		t.Errorf("high water %d out of [1,16]", hw)
	}
}

func TestMetricSetIdentityAndSnapshot(t *testing.T) {
	m := NewMetricSet()
	if m.Counter("hits") != m.Counter("hits") {
		t.Error("same name must return the same counter")
	}
	if m.Gauge("queue") != m.Gauge("queue") {
		t.Error("same name must return the same gauge")
	}
	m.Counter("hits").Add(3)
	m.Gauge("queue").Add(4)
	m.Gauge("queue").Dec()
	snap := m.Snapshot()
	if snap["hits"] != 3 {
		t.Errorf("snapshot hits = %d, want 3", snap["hits"])
	}
	if snap["queue"] != 3 {
		t.Errorf("snapshot queue = %d, want 3", snap["queue"])
	}
	if snap["queue.max"] != 4 {
		t.Errorf("snapshot queue.max = %d, want 4", snap["queue.max"])
	}
	if len(snap) != 3 {
		t.Errorf("snapshot = %v, want only hits, queue and queue.max", snap)
	}
}

func TestMetricSetConcurrent(t *testing.T) {
	m := NewMetricSet()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Counter("c").Inc()
				m.Gauge("g").Inc()
				m.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("c").Load(); got != 1600 {
		t.Errorf("counter = %d, want 1600", got)
	}
}

func TestHitRate(t *testing.T) {
	var hits, misses Counter
	if HitRate(&hits, &misses) != 0 {
		t.Error("empty hit rate should be 0")
	}
	hits.Add(9)
	misses.Add(1)
	if got := HitRate(&hits, &misses); got != 0.9 {
		t.Errorf("hit rate = %v, want 0.9", got)
	}
}
