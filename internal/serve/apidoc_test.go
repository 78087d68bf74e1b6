package serve

// apidoc_test executes the powerserve half of docs/API.md: every
// `<!-- roundtrip METHOD PATH STATUS -->` marker (optionally followed
// by a fenced ```json request body) is sent through the real handler
// and its status code is asserted. Editing the docs to show a request
// the server no longer accepts — or an error code it no longer
// returns — fails this test. The fleetctl control-plane examples in
// the same document are executed by internal/fleet's apidoc test
// (serve cannot import fleet — fleet imports serve), so the split
// here is by path prefix.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/doctest"
	"repro/internal/obs"
)

// isControlPlanePath reports whether a documented path belongs to the
// fleetctl controller or the powerrouter admin surface rather than
// powerserve.
func isControlPlanePath(p string) bool {
	return strings.HasPrefix(p, "/jobs") || strings.HasPrefix(p, "/fleet") || strings.HasPrefix(p, "/admin")
}

func TestAPIDocExamplesRoundTrip(t *testing.T) {
	all, err := doctest.Parse("../../docs/API.md")
	if err != nil {
		t.Fatalf("parse docs/API.md: %v (the API doc must exist and ship with the repo)", err)
	}
	var examples []doctest.Example
	for _, ex := range all {
		if !isControlPlanePath(ex.Path) {
			examples = append(examples, ex)
		}
	}
	// The doc currently carries 12 executable powerserve examples; a
	// rewrite that loses markers should have to say so here.
	if len(examples) < 10 {
		t.Fatalf("found only %d powerserve roundtrip examples in docs/API.md, want ≥ 10", len(examples))
	}

	s := NewCore(testConfig())
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	covered := map[string]bool{}
	for _, ex := range examples {
		name := ex.Method + " " + ex.Path + " line " + strconv.Itoa(ex.Line)
		covered[ex.Method+" "+ex.Path] = true

		var req *http.Request
		var err error
		if ex.Method == http.MethodGet {
			req, err = http.NewRequest(http.MethodGet, ts.URL+ex.Path, nil)
		} else {
			if strings.TrimSpace(ex.Body) == "" {
				t.Errorf("%s: documented POST example has no body", name)
				continue
			}
			if !json.Valid([]byte(ex.Body)) {
				t.Errorf("%s: documented body is not valid JSON:\n%s", name, ex.Body)
				continue
			}
			req, err = http.NewRequest(http.MethodPost, ts.URL+ex.Path, bytes.NewReader([]byte(ex.Body)))
			req.Header.Set("Content-Type", "application/json")
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		// The prom exposition is the one documented non-JSON body: it is
		// validated by the same linter CI runs against the live binaries.
		if strings.Contains(ex.Path, "format=prom") {
			status := resp.StatusCode
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			if status != ex.Status {
				t.Errorf("%s: documented status %d, handler returned %d", name, ex.Status, status)
				continue
			}
			if errs := obs.LintProm(bytes.NewReader(body.Bytes())); len(errs) > 0 {
				t.Errorf("%s: prom exposition fails the linter: %v", name, errs)
			}
			continue
		}

		var payload map[string]any
		decErr := json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()

		if resp.StatusCode != ex.Status {
			t.Errorf("%s: documented status %d, handler returned %d (%v)", name, ex.Status, resp.StatusCode, payload)
			continue
		}
		if decErr != nil {
			t.Errorf("%s: response is not JSON: %v", name, decErr)
			continue
		}
		if ex.Status >= 400 {
			if msg, ok := payload["error"].(string); !ok || msg == "" {
				t.Errorf("%s: documented error responses carry {\"error\": ...}, got %v", name, payload)
			}
			continue
		}
		// Spot-check the documented success shapes.
		switch ex.Path {
		case "/predict":
			for _, k := range []string{"predicted_w", "simulated_w", "pattern", "features"} {
				if _, ok := payload[k]; !ok {
					t.Errorf("%s: response missing documented field %q", name, k)
				}
			}
		case "/predict/batch":
			items, ok := payload["items"].([]any)
			if !ok || len(items) == 0 {
				t.Errorf("%s: response missing documented items", name)
			}
			for _, k := range []string{"distinct", "coalesced"} {
				if _, ok := payload[k]; !ok {
					t.Errorf("%s: response missing documented field %q", name, k)
				}
			}
		case "/train":
			for _, k := range []string{"weights_pj", "r2", "samples", "purged"} {
				if _, ok := payload[k]; !ok {
					t.Errorf("%s: response missing documented field %q", name, k)
				}
			}
		case "/healthz":
			for _, k := range []string{"status", "devices", "dtypes", "metrics"} {
				if _, ok := payload[k]; !ok {
					t.Errorf("%s: response missing documented field %q", name, k)
				}
			}
		case "/metrics":
			for _, k := range []string{"metrics", "cache_hit_rate"} {
				if _, ok := payload[k]; !ok {
					t.Errorf("%s: response missing documented field %q", name, k)
				}
			}
		case "/debug/spans":
			for _, k := range []string{"total", "spans"} {
				if _, ok := payload[k]; !ok {
					t.Errorf("%s: response missing documented field %q", name, k)
				}
			}
		}
	}

	// Every endpoint must have at least one executable success example
	// and the POST endpoints at least one documented failure.
	for _, want := range []string{
		"POST /predict", "POST /predict/batch", "POST /train", "GET /healthz", "GET /metrics",
		"GET /metrics?format=prom", "GET /debug/spans",
	} {
		if !covered[want] {
			t.Errorf("docs/API.md has no roundtrip example for %s", want)
		}
	}
}
