package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHitRateZeroRequests pins the division edge case in the derived
// /metrics hit-rate: with no cache traffic at all (hits+misses == 0)
// the gauge must be exactly 0, not NaN or a panic — both would leak
// into the JSON encoding ("cache_hit_rate":null) on a freshly started
// node that a load balancer polls before any prediction arrives.
func TestHitRateZeroRequests(t *testing.T) {
	cases := map[string]map[string]int64{
		"nil snapshot":       nil,
		"empty snapshot":     {},
		"zero counters":      {"serve.cache.hits": 0, "serve.cache.misses": 0},
		"unrelated counters": {"serve.batch.requests": 7},
	}
	for name, m := range cases {
		if got := hitRateFrom(m); got != 0 {
			t.Errorf("%s: hitRateFrom = %v, want 0", name, got)
		}
	}
	if got := hitRateFrom(map[string]int64{"serve.cache.hits": 3, "serve.cache.misses": 1}); got != 0.75 {
		t.Errorf("hitRateFrom with traffic = %v, want 0.75", got)
	}
}

// TestMetricsEndpointZeroRequests drives the same edge case through
// the real handler: GET /metrics on a server that has answered nothing
// must return a finite zero hit-rate.
func TestMetricsEndpointZeroRequests(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var mr MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.CacheHitRate != 0 {
		t.Errorf("cache_hit_rate = %v before any request, want 0", mr.CacheHitRate)
	}
	if math.IsNaN(mr.CacheHitRate) || math.IsInf(mr.CacheHitRate, 0) {
		t.Errorf("cache_hit_rate is not finite: %v", mr.CacheHitRate)
	}
}
