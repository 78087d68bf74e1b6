package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/power"
)

// testConfig keeps server-side simulation and training small enough
// for -race runs while leaving every mechanism engaged.
func testConfig() Config {
	return Config{
		CacheSize:     64,
		MaxSize:       192,
		SampleOutputs: 64,
		Training: experiments.TrainingConfig{
			Sizes: []int{32, 48, 64},
			Patterns: []string{
				"gaussian(default)",
				"gaussian(mean=500, std=1)",
				"constant(7)",
				"constant(random)",
				"set(n=4, mean=0, std=210)",
				"gaussian(default) | sparsify(50%)",
				"gaussian(default) | sort(rows, 100%)",
			},
			SampleOutputs: 64,
			Seed:          1,
		},
	}
}

func TestPredictMatchesDirectPredictor(t *testing.T) {
	// The served number must be exactly what a client gets by training
	// the same sweep and calling power.Predictor.Predict directly.
	cfg := testConfig()
	s := NewCore(cfg)
	defer s.Close()

	req := PredictRequest{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "gaussian(default)", Size: 96}
	resp, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	dev := device.A100PCIe()
	samples, err := experiments.TrainingSamples(dev, matrix.FP16, cfg.Training)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := power.Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	pat := patterns.MustParse("gaussian(default)")
	rep, res, err := Simulate(dev, matrix.FP16, pat, 96, cfg.SampleOutputs)
	if err != nil {
		t.Fatal(err)
	}
	want := pred.Predict(power.FeaturesOf(rep, res))
	if resp.PredictedW != want {
		t.Errorf("served prediction %v != direct Predict %v", resp.PredictedW, want)
	}
	if resp.SimulatedW != res.AvgPowerW {
		t.Errorf("served simulation %v != direct Evaluate %v", resp.SimulatedW, res.AvgPowerW)
	}
	// The linear model fits the simulator closely at training scale.
	if rel := math.Abs(resp.ResidualW) / resp.SimulatedW; rel > 0.05 {
		t.Errorf("residual %v W is %v of simulated power, want < 5%%", resp.ResidualW, rel)
	}
	if resp.TrainR2 < 0.999 {
		t.Errorf("served R² = %v, want ≈1", resp.TrainR2)
	}
	if resp.Cached {
		t.Error("first request must not be served from cache")
	}
}

func TestConcurrentPredictsAgreeWithSerial(t *testing.T) {
	// 64+ concurrent requests over a handful of keys: every response
	// must equal the serial answer for its key, and the server must
	// stay race-clean (enforced by -race in CI).
	s := NewCore(testConfig())
	defer s.Close()

	reqs := []PredictRequest{
		{Pattern: "gaussian(default)", Size: 64},
		{Pattern: "constant(7)", Size: 64},
		{Pattern: "gaussian(default) | sparsify(50%)", Size: 64},
		{DType: "INT8", Pattern: "gaussian(default)", Size: 64},
	}
	serial := make([]*PredictResponse, len(reqs))
	for i, r := range reqs {
		resp, err := s.Predict(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = resp
	}

	const concurrency = 64
	var wg sync.WaitGroup
	errs := make([]error, concurrency)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			want := serial[w%len(reqs)]
			got, err := s.Predict(context.Background(), reqs[w%len(reqs)])
			if err != nil {
				errs[w] = err
				return
			}
			if got.PredictedW != want.PredictedW || got.SimulatedW != want.SimulatedW {
				errs[w] = fmt.Errorf("response diverged: %v/%v vs %v/%v",
					got.PredictedW, got.SimulatedW, want.PredictedW, want.SimulatedW)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics()["serve.requests"]; got != int64(len(reqs))+concurrency {
		t.Errorf("request counter %d, want %d", got, len(reqs)+concurrency)
	}
}

func TestCacheHitRateOnRepeatedWorkload(t *testing.T) {
	// A repeated-pattern workload must exceed 90% cache hit-rate and
	// run the GEMM simulation exactly once per unique key.
	s := NewCore(testConfig())
	defer s.Close()

	uniques := []PredictRequest{
		{Pattern: "gaussian(default)", Size: 48},
		{Pattern: "constant(7)", Size: 48},
	}
	const total = 100
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Predict(context.Background(), uniques[i%len(uniques)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	m := s.Metrics()
	if sims := m["serve.simulations"]; sims != int64(len(uniques)) {
		t.Errorf("ran %d simulations for %d unique keys — cache failed to absorb repeats", sims, len(uniques))
	}
	if hits, misses := m["serve.cache.hits"], m["serve.cache.misses"]; hits+misses != total {
		t.Errorf("hits %d + misses %d != %d requests", hits, misses, total)
	}
	if rate := s.CacheHitRate(); rate <= 0.9 {
		t.Errorf("cache hit rate %.3f, want > 0.9", rate)
	}
	if got := s.CacheLen(); got != len(uniques) {
		t.Errorf("cache holds %d entries, want %d", got, len(uniques))
	}
	// A cached response must byte-for-byte equal the computed one
	// apart from the Cached flag.
	fresh, _ := s.Predict(context.Background(), uniques[0])
	if !fresh.Cached {
		t.Error("repeat must come from the cache")
	}
}

func TestPredictValidation(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	cases := []PredictRequest{
		{Device: "TPUv4"},
		{DType: "FP64"},
		{Pattern: "bogus(1)"},
		{Size: 4096},
		{Size: -3},
	}
	for _, req := range cases {
		_, err := s.Predict(context.Background(), req)
		var re *RequestError
		if err == nil || !errors.As(err, &re) {
			t.Errorf("request %+v: err = %v, want RequestError", req, err)
		}
	}
}

func TestTrainEndpointRetrainsAndPurges(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	req := PredictRequest{Pattern: "gaussian(default)", Size: 48}
	if _, err := s.Predict(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if s.CacheLen() != 1 {
		t.Fatalf("cache len = %d, want 1", s.CacheLen())
	}
	tr, err := s.Train(context.Background(), TrainRequest{
		Sizes: []int{32, 48, 64},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.R2 < 0.999 {
		t.Errorf("retrained R² = %v", tr.R2)
	}
	if tr.Purged != 1 {
		t.Errorf("purged %d cache entries, want 1", tr.Purged)
	}
	if tr.Samples == 0 || tr.WeightsPJ == ([power.NumFeatures]float64{}) {
		t.Error("train response missing fit details")
	}
	// The purge forces the next predict to resimulate.
	resp, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("post-train predict must not hit the stale cache")
	}
}

func TestStaleGenerationEntryIsRecomputed(t *testing.T) {
	// A cache fill from a superseded predictor generation (the
	// train-vs-inflight-predict race) must be recomputed, not served.
	s := NewCore(testConfig())
	defer s.Close()
	req := PredictRequest{Pattern: "constant(3)", Size: 32}
	fresh, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	key := res.Key
	stale := *fresh
	stale.gen = 0 // as if computed before the current predictor existed
	stale.PredictedW = -1
	s.cache.Put(key, stale)

	got, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Error("stale-generation entry must not be served as a cache hit")
	}
	if got.PredictedW != fresh.PredictedW {
		t.Errorf("recomputed prediction %v, want %v", got.PredictedW, fresh.PredictedW)
	}
	// The recompute overwrote the poisoned entry.
	again, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.PredictedW != fresh.PredictedW {
		t.Error("cache should hold the recomputed entry")
	}
}

func TestTrainValidation(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	cases := []TrainRequest{
		{Device: "TPUv4"},
		{DType: "FP64"},
		{Sizes: []int{100000}},
		{Patterns: []string{"bogus(1)"}},
	}
	for _, req := range cases {
		_, err := s.Train(context.Background(), req)
		var re *RequestError
		if err == nil || !errors.As(err, &re) {
			t.Errorf("request %+v: err = %v, want RequestError", req, err)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, out.Bytes()
	}

	// /predict round trip.
	resp, body := post("/predict", PredictRequest{Pattern: "constant(7)", Size: 48})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.SimulatedW <= 0 || pr.PredictedW <= 0 {
		t.Errorf("nonsense powers in %+v", pr)
	}
	if pr.Pattern != "constant(7)" {
		t.Errorf("pattern echoed as %q", pr.Pattern)
	}

	// Repeat is served from cache.
	_, body = post("/predict", PredictRequest{Pattern: "constant(7)", Size: 48})
	var pr2 PredictResponse
	if err := json.Unmarshal(body, &pr2); err != nil {
		t.Fatal(err)
	}
	if !pr2.Cached {
		t.Error("second identical POST should be a cache hit")
	}
	if pr2.PredictedW != pr.PredictedW {
		t.Error("cache must not change the answer")
	}

	// Validation errors are 400s with a JSON error body.
	resp, body = post("/predict", PredictRequest{DType: "FP64"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/predict bad dtype status %d: %s", resp.StatusCode, body)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("expected JSON error body, got %s", body)
	}

	// Unknown fields are rejected.
	r, err := http.Post(ts.URL+"/predict", "application/json",
		bytes.NewReader([]byte(`{"patern": "typo"}`)))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d, want 400", r.StatusCode)
	}

	// GET on /predict is rejected.
	r, err = http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict status %d, want 405", r.StatusCode)
	}

	// /train round trip.
	resp, body = post("/train", TrainRequest{DType: "INT8"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/train status %d: %s", resp.StatusCode, body)
	}
	var tr TrainResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.DType != "INT8" || tr.Samples == 0 {
		t.Errorf("bad train response %+v", tr)
	}

	// /healthz reports metrics including the cache counters.
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(r.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if hr.Status != "ok" {
		t.Errorf("health status %q", hr.Status)
	}
	if len(hr.Devices) == 0 || len(hr.DTypes) == 0 {
		t.Error("health must list devices and dtypes")
	}
	if hr.Metrics["serve.cache.hits"] < 1 {
		t.Errorf("health metrics missing cache hits: %v", hr.Metrics)
	}
	if _, ok := hr.Metrics["serve.queue.depth.max"]; !ok {
		t.Errorf("health metrics missing queue depth high-water: %v", hr.Metrics)
	}
}

// TestPredictRejectsNaNPattern: a NaN sort fraction that reached the
// worker pool would be a negative element count and panic the process.
// It must be an in-band 400, and the server must keep answering.
func TestPredictRejectsNaNPattern(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	post := func(pattern string) (int, []byte) {
		t.Helper()
		buf, _ := json.Marshal(PredictRequest{Pattern: pattern, Size: 32})
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.Bytes()
	}
	if code, body := post("gaussian(default)|sort(rows,NaN)"); code != http.StatusBadRequest {
		t.Fatalf("NaN sort fraction: status %d, want 400: %s", code, body)
	}
	code, body := post("gaussian(default)|sort(rows,50%)")
	if code != http.StatusOK {
		t.Fatalf("valid request after the rejected one: status %d: %s", code, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil || pr.SimulatedW <= 0 {
		t.Errorf("valid request after the rejected one: %s (%v)", body, err)
	}
}

// TestPredictTinyFlipRate: for a flip rate p ≤ 2⁻⁵⁴, 1-p rounds to 1,
// and the geometric flip path used to index the matrix at -2⁵⁸ on a
// pool worker, which has no recover, so one request ended the
// process. Such a rate flips nothing; the answer is a 200, and the
// server keeps answering.
func TestPredictTinyFlipRate(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	for _, pattern := range []string{"gaussian(default) | flip(1e-17)", "gaussian(default) | flip(5e-17)", "gaussian(default)"} {
		buf, _ := json.Marshal(PredictRequest{Pattern: pattern, DType: "FP16", Size: 32})
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		var out bytes.Buffer
		_, err = out.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		var pr PredictResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(out.Bytes(), &pr) != nil || pr.SimulatedW <= 0 {
			t.Errorf("%s: status %d, want 200 with a simulated power: %s", pattern, resp.StatusCode, out.Bytes())
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// One miss then one hit: the endpoint must expose the counters and
	// derive the hit-rate from them.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/predict", "application/json",
			bytes.NewReader([]byte(`{"pattern": "constant(9)", "size": 32}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up predict %d: status %d", i, resp.StatusCode)
		}
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mr MetricsResponse
	if err := json.NewDecoder(r.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", r.StatusCode)
	}
	if mr.Metrics["serve.cache.hits"] != 1 || mr.Metrics["serve.cache.misses"] != 1 {
		t.Errorf("metrics counters %v, want 1 hit and 1 miss", mr.Metrics)
	}
	if mr.CacheHitRate != 0.5 {
		t.Errorf("cache_hit_rate = %v, want 0.5", mr.CacheHitRate)
	}
	if mr.CacheHitRate != s.CacheHitRate() {
		t.Errorf("endpoint hit-rate %v disagrees with Server.CacheHitRate() %v", mr.CacheHitRate, s.CacheHitRate())
	}

	// POST is rejected.
	resp, err := http.Post(ts.URL+"/metrics", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status %d, want 405", resp.StatusCode)
	}
}

func TestRegistryTrainsOncePerCombination(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := PredictRequest{Pattern: fmt.Sprintf("constant(%d)", i), Size: 32}
			if _, err := s.Predict(context.Background(), req); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	m := s.Metrics()
	if got := m["serve.trainings"]; got != 1 {
		t.Errorf("ran %d training sweeps for one (device, dtype), want 1", got)
	}
	if got := m["serve.simulations"]; got != 16 {
		t.Errorf("ran %d simulations for 16 unique keys, want 16", got)
	}
}

// BenchmarkPredictCached times the steady-state serving hot path: a
// /predict that hits the LRU and never touches the GEMM simulation.
func BenchmarkPredictCached(b *testing.B) {
	s := NewCore(testConfig())
	defer s.Close()
	req := PredictRequest{Pattern: "gaussian(default)", Size: 64}
	if _, err := s.Predict(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Predict(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.CacheHitRate()*100, "hit_%")
}

// BenchmarkPredictUncached times a cache miss end to end (simulation
// included) at the serving layer's default fidelity.
func BenchmarkPredictUncached(b *testing.B) {
	s := NewCore(testConfig())
	defer s.Close()
	// Pay the lazy training outside the timer.
	if _, err := s.Predict(context.Background(), PredictRequest{Size: 32}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := PredictRequest{Pattern: fmt.Sprintf("constant(%d)", i), Size: 64}
		if _, err := s.Predict(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMetricsGaugesSettle(t *testing.T) {
	s := NewCore(testConfig())
	if _, err := s.Predict(context.Background(), PredictRequest{Size: 32}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	m := s.Metrics()
	if m["serve.queue.depth"] != 0 {
		t.Errorf("queue depth %d after drain, want 0", m["serve.queue.depth"])
	}
	if m["serve.inflight"] != 0 {
		t.Errorf("in-flight %d after drain, want 0", m["serve.inflight"])
	}
}
