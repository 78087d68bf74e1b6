package obs

// This file holds the operational metrics that instrument the
// reproduction itself when it runs as a service (internal/serve,
// internal/cluster, internal/fleet). They are deliberately
// DCGM-flavoured — monotonic counters and level gauges with high-water
// marks, snapshotted as a flat name→value map — so a scrape of
// /healthz reads like a field dump.

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count, safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, in-flight requests)
// that also tracks its high-water mark, safe for concurrent use.
type Gauge struct {
	v    atomic.Int64
	high atomic.Int64
}

// Inc raises the level by one and returns the new value.
func (g *Gauge) Inc() int64 { return g.Add(1) }

// Dec lowers the level by one and returns the new value.
func (g *Gauge) Dec() int64 { return g.Add(-1) }

// Add shifts the level by n and returns the new value, updating the
// high-water mark.
func (g *Gauge) Add(n int64) int64 {
	v := g.v.Add(n)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return v
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HighWater returns the maximum level ever observed.
func (g *Gauge) HighWater() int64 { return g.high.Load() }

// MetricSet is a named collection of counters, gauges and
// histograms. The zero value is ready to use. Histograms are kept out
// of Snapshot on purpose: the flat JSON /metrics map predates them and
// its bytes are pinned by equivalence tests, so distributions travel
// only through HistogramSnapshots (rendered by the Prometheus
// exposition).
type MetricSet struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewMetricSet returns an empty metric set.
func NewMetricSet() *MetricSet { return &MetricSet{} }

// Counter returns the counter with the given name, creating it on
// first use. The same name always returns the same counter.
func (m *MetricSet) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counters == nil {
		m.counters = map[string]*Counter{}
	}
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first
// use. The same name always returns the same gauge.
func (m *MetricSet) Gauge(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gauges == nil {
		m.gauges = map[string]*Gauge{}
	}
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the latency histogram with the given name
// (observations in nanoseconds, exposed in seconds), creating it on
// first use. The same name always returns the same histogram.
func (m *MetricSet) Histogram(name string) *Histogram {
	return m.histogram(name, NewLatencyHistogram)
}

// ValueHistogram returns the unit-less histogram with the given name
// (sizes, widths, counts), creating it on first use.
func (m *MetricSet) ValueHistogram(name string) *Histogram {
	return m.histogram(name, NewHistogram)
}

func (m *MetricSet) histogram(name string, mk func() *Histogram) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.histograms == nil {
		m.histograms = map[string]*Histogram{}
	}
	h, ok := m.histograms[name]
	if !ok {
		h = mk()
		m.histograms[name] = h
	}
	return h
}

// HistogramSnapshots returns a point-in-time copy of every histogram,
// keyed by name. Deliberately separate from Snapshot (see MetricSet).
func (m *MetricSet) HistogramSnapshots() map[string]HistogramSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(m.histograms))
	for name, h := range m.histograms {
		out[name] = h.Snapshot()
	}
	return out
}

// PromSnapshot bundles the set's counters, gauges (level and ".max"
// high-water entries) and histograms in the typed form the Prometheus
// text renderer needs.
func (m *MetricSet) PromSnapshot() PromSnapshot {
	m.mu.Lock()
	counters := make(map[string]int64, len(m.counters))
	for name, c := range m.counters {
		counters[name] = c.Load()
	}
	gauges := make(map[string]int64, 2*len(m.gauges))
	for name, g := range m.gauges {
		gauges[name] = g.Load()
		gauges[name+".max"] = g.HighWater()
	}
	m.mu.Unlock()
	return PromSnapshot{
		Counters:   counters,
		Gauges:     gauges,
		Histograms: m.HistogramSnapshots(),
	}
}

// Snapshot returns a point-in-time copy of every metric: counters under
// their name, gauges under both "name" (level) and "name.max"
// (high-water mark).
func (m *MetricSet) Snapshot() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counters)+2*len(m.gauges))
	for name, c := range m.counters {
		out[name] = c.Load()
	}
	for name, g := range m.gauges {
		out[name] = g.Load()
		out[name+".max"] = g.HighWater()
	}
	return out
}

// HitRate is a convenience for cache-style counter pairs: it returns
// hits/(hits+misses), or 0 when nothing has been counted.
func HitRate(hits, misses *Counter) float64 {
	h, m := hits.Load(), misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
