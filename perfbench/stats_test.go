package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		maxP   float64
		want   float64
		beyond int
	}{
		{n: 1000, maxP: 99, want: 99, beyond: 10},
		{n: 999, maxP: 99, want: 95, beyond: 49},
		{n: 200, maxP: 99, want: 95, beyond: 10},
		{n: 199, maxP: 99, want: 90, beyond: 19},
		{n: 100, maxP: 99, want: 90, beyond: 10},
		{n: 99, maxP: 99, want: 75, beyond: 24},
		{n: 40, maxP: 99, want: 75, beyond: 10},
		{n: 39, maxP: 99, want: 50, beyond: 19},
		{n: 20, maxP: 99, want: 50, beyond: 10},
		// Too few samples for any ladder step: the median, short.
		{n: 19, maxP: 99, want: 50, beyond: 9},
		{n: 1, maxP: 99, want: 50, beyond: 0},
		// A cap holds the percentile as the sample count grows.
		{n: 100000, maxP: 75, want: 75, beyond: 25000},
		{n: 80, maxP: 75, want: 75, beyond: 20},
	} {
		got := tailPercentile(tc.n, tc.maxP)
		if got != tc.want || beyond(got, tc.n) != tc.beyond {
			t.Errorf("n=%d max=p%g: got p%g with %d beyond, want p%g with %d", tc.n, tc.maxP, got, beyond(got, tc.n), tc.want, tc.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 75: 8, 90: 9, 95: 10, 99: 10, 1: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	var lat []time.Duration
	for i := 100; i >= 1; i-- {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	s := summarize(lat, 99)
	if s.N != 100 || s.P50 != 50 || s.TailP != 90 || s.Tail != 90 || s.Beyond != 10 {
		t.Fatalf("summary %+v", s)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median = %g", m)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %g", m)
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		// [10,30) and [20,50) overlap: their union [10,50) counts once.
		{"overlapping", []interval{{10, 30}, {20, 50}, {60, 70}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 50}}, 20},
		{"identical", []interval{{10, 20}, {10, 20}}, 90},
		// Children reaching outside the parent count only inside it.
		{"clipped", []interval{{-50, 10}, {90, 200}, {300, 400}}, 80},
		{"covers all", []interval{{0, 60}, {50, 100}}, 0},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
	} {
		if got := selfTime(0, 100, tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSpanIndexSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.predict", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "router.http", Start: 5, End: 95},
		{ID: 3, Parent: 2, Name: "router.hop.batch", Start: 10, End: 60},
		{ID: 4, Parent: 2, Name: "router.hop.batch", Start: 40, End: 80},
		// Below a hop: covered by it already, not counted again.
		{ID: 5, Parent: 3, Name: "shard.http", Start: 15, End: 55},
		{ID: 6, Name: "client.batch", Start: 200, End: 230},
	}
	ix := indexSpans(spans)
	got := median(ix.selfTimes("client.", "router.hop."))
	// client.predict: 100 - |[10,80)| = 30; client.batch: 30.
	if got != 30 {
		t.Errorf("router self = %g, want 30", got)
	}
	if d := ix.durations("router.hop.batch"); len(d) != 2 || d[0]+d[1] != 90 {
		t.Errorf("hop durations %v", d)
	}
}

func TestParseCPUStat(t *testing.T) {
	st := parseCPUStat("cpu  100 5 50 800 10 0 5 30 7 0")
	if st.total != 1000 || st.steal != 30 {
		t.Fatalf("parsed %+v", st)
	}
	if f := stealFrac(cpuStat{total: 1000, steal: 30}, cpuStat{total: 1200, steal: 40}); f != 0.05 {
		t.Errorf("steal frac %g", f)
	}
	if st := parseCPUStat("intr 1 2 3"); st != (cpuStat{}) {
		t.Errorf("non-cpu line parsed to %+v", st)
	}
}

func TestBuildChunks(t *testing.T) {
	ms := time.Millisecond
	start := mark{cpu: 100 * ms, host: cpuStat{total: 1000, steal: 0}, misses: 1}
	// Marks every 2 ops, handed over out of order as concurrent
	// clients may record them.
	marks := []mark{
		{n: 4, at: 300 * ms, cpu: 140 * ms, host: cpuStat{total: 1200, steal: 20}, misses: 3},
		{n: 2, at: 100 * ms, cpu: 120 * ms, host: cpuStat{total: 1100, steal: 0}, misses: 1},
		{n: 6, at: 350 * ms, cpu: 150 * ms, host: cpuStat{total: 1300, steal: 20}, misses: 4},
	}
	chunks := buildChunks(marks, 2, start)
	want := []chunk{
		{rate: 20, cpuPerOp: 10, steal: 0, misses: 0},
		{rate: 10, cpuPerOp: 10, steal: 0.2, misses: 2},
		{rate: 40, cpuPerOp: 5, steal: 0, misses: 1},
	}
	if len(chunks) != len(want) {
		t.Fatalf("%d chunks", len(chunks))
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Errorf("chunk %d = %+v, want %+v", i, chunks[i], want[i])
		}
	}
}

func TestKindLatencies(t *testing.T) {
	ms := time.Millisecond
	// Kind 0 has one slow outlier; its median stands for all three.
	ops := []opRecord{{0, 10 * ms}, {1, 50 * ms}, {0, 12 * ms}, {1, 40 * ms}, {0, 90 * ms}}
	lat, medians := kindLatencies(ops)
	got := map[time.Duration]int{}
	for _, d := range lat {
		got[d]++
	}
	if len(got) != 2 || got[12*ms] != 3 || got[45*ms] != 2 {
		t.Errorf("kind latencies %v", got)
	}
	if len(medians) != 2 || medians[0] != 12 || medians[1] != 45 {
		t.Errorf("kind medians %v", medians)
	}
}

func TestBetaInc(t *testing.T) {
	for _, tc := range []struct{ x, a, b, want float64 }{
		{0.5, 9, 9, 0.5},
		{0.3, 1, 1, 0.3},
		// I_x(2, 1) = x².
		{0.6, 2, 1, 0.36},
		// I_x(1, 3) = 1 - (1-x)³.
		{0.2, 1, 3, 1 - 0.8*0.8*0.8},
		{0, 4, 4, 0},
		{1, 4, 4, 1},
	} {
		if got := betaInc(tc.x, tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("I_%g(%g, %g) = %.15g, want %g", tc.x, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	// Symmetric samples: the median estimate is the centre.
	if got := hdQuantile([]float64{1, 2, 3, 4, 5}, 0.5); math.Abs(got-3) > 1e-12 {
		t.Errorf("median of 1..5 = %g", got)
	}
	// Swapping the values of two neighbours around the middle moves a
	// plain median from 121 to 99; the estimate moves far less.
	a := []float64{24, 67, 85, 94, 99, 121, 133, 205, 230}
	b := []float64{24, 67, 85, 94, 99, 99, 133, 205, 230}
	ha, hb := hdQuantile(a, 0.5), hdQuantile(b, 0.5)
	if d := (ha - hb) / ha; d <= 0 || d > 0.1 {
		t.Errorf("estimate moved by %.3f (%g to %g)", d, ha, hb)
	}
	if got := hdQuantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("single sample: %g", got)
	}
}

// The metric names the program reports must be the ones
// BENCHMARK.json declares, in its order, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []layerName `json:"end_to_end"`
		PerLayer []layerName `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerNames) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayerNames:\n%v\n%v", spec.PerLayer, perLayerNames)
	}
	want := []layerName{
		{"ops_per_s", "1/s"}, {"p50_ms", "ms"}, {"tail_ms", "ms"}, {"cpu_ms_per_op", "ms"},
		{"alloc_mb_per_op", "MB"}, {"live_heap_mb", "MB"}, {"setup_s", "s"},
	}
	if !reflect.DeepEqual(spec.EndToEnd, want) {
		t.Errorf("end_to_end in BENCHMARK.json: %v, want %v", spec.EndToEnd, want)
	}
}
