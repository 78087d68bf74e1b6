package serve

// Endpoint-level observability tests: the prom exposition lints clean
// and carries the per-endpoint latency histograms, the JSON /metrics
// body stays exactly the historical shape, and POSTs leave spans
// behind /debug/spans.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestMetricsPromEndpoint(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// One miss, one hit, one batch: populates hit, compute and batch
	// histograms.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/predict", `{"size": 8}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/predict/batch", `{"requests": [{"size": 8}, {"size": 8}]}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	promResp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	if promResp.StatusCode != http.StatusOK {
		t.Fatalf("prom status %d", promResp.StatusCode)
	}
	if ct := promResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prom content type %q", ct)
	}
	body, err := io.ReadAll(promResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintProm(bytes.NewReader(body)); len(errs) > 0 {
		t.Fatalf("prom exposition fails the linter: %v\n%s", errs, body)
	}
	for _, want := range []string{
		"# TYPE serve_predict_latency_hit_seconds histogram",
		"# TYPE serve_predict_latency_compute_seconds histogram",
		"# TYPE serve_batch_latency_seconds histogram",
		"# TYPE serve_cache_hits counter",
		"# TYPE serve_queue_depth gauge",
		"serve_predict_latency_hit_seconds_count 1",
		"serve_predict_latency_compute_seconds_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	// Unknown formats are a client error, not silently JSON.
	bad, err := http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml status %d, want 400", bad.StatusCode)
	}
}

func TestMetricsJSONShapeUnchangedByObservability(t *testing.T) {
	// The JSON body must stay exactly {metrics, cache_hit_rate} with no
	// histogram entries — its bytes are diffed across topologies by the
	// equivalence suites.
	s := NewCore(testConfig())
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/predict", `{"size": 8}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	for _, u := range []string{ts.URL + "/metrics", ts.URL + "/metrics?format=json"} {
		mresp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		var payload map[string]json.RawMessage
		if err := json.NewDecoder(mresp.Body).Decode(&payload); err != nil {
			t.Fatal(err)
		}
		mresp.Body.Close()
		if len(payload) != 2 {
			t.Fatalf("%s: JSON body has keys %v, want exactly {metrics, cache_hit_rate}", u, keysOf(payload))
		}
		var metrics map[string]int64
		if err := json.Unmarshal(payload["metrics"], &metrics); err != nil {
			t.Fatalf("%s: metrics not flat name→int64: %v", u, err)
		}
		for name := range metrics {
			if strings.Contains(name, "latency") {
				t.Errorf("%s: histogram %q leaked into the flat JSON metrics map", u, name)
			}
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDebugSpansAndTraceEcho(t *testing.T) {
	s := NewCore(testConfig())
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/predict", strings.NewReader(`{"size": 8}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "00000000000000ab")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "00000000000000ab" {
		t.Fatalf("response echoed trace id %q", got)
	}

	sresp, err := http.Get(ts.URL + "/debug/spans?trace=00000000000000ab")
	if err != nil {
		t.Fatal(err)
	}
	var spans obs.SpansResponse
	if err := json.NewDecoder(sresp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	names := map[string]bool{}
	for _, sp := range spans.Spans {
		names[sp.Name] = true
	}
	if !names["POST /predict"] || !names["serve.compute"] {
		t.Fatalf("trace missing server or worker-pool span, got %v", names)
	}
}
