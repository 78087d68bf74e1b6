package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/sched"
)

// liveConfig is a small mixed-model capped fleet: two models exercise
// the unpinned jobs' full key expansion, the cap exercises the
// governor, and PredictiveHorizon exercises the timeline plumbing.
func liveConfig() Config {
	return Config{
		Devices: []*device.Device{
			device.ByName("A100-PCIe-40GB"),
			device.ByName("A100-PCIe-40GB"),
			device.ByName("H100-SXM5-80GB"),
		},
		Oracle:    &ModelOracle{SampleOutputs: 64},
		Policy:    sched.PredictiveHorizon{WindowS: 30},
		PowerCapW: 700,
	}
}

func postJob(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST /jobs: bad response: %v", err)
	}
	return resp.StatusCode, m
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// waitDrained polls /fleet/status until the engine reports drained.
func waitDrained(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, b := getJSON(t, url+"/fleet/status")
		var st FleetStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.Drained {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("fleet did not drain in time")
}

// TestLiveOfflineEquivalence is the control plane's core guarantee on
// real HTTP: a live session's recorded trace, replayed through the
// offline Run with the same config, reproduces the live report
// byte-for-byte — job results, throttle events, fleet energy and the
// oracle's lookup/distinct economics included.
func TestLiveOfflineEquivalence(t *testing.T) {
	ctl, err := NewController(liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	// Two submission waves separated by a full drain: the virtual-time
	// clock pauses in between, so the wall-clock gap must be invisible
	// in the replay. Mixed patterns/dtypes, a pinned job, duplicate
	// specs (oracle coalescing) and concurrent bursts (shared arrival
	// stamps) all ride along.
	wave1 := []string{
		`{"dtype": "FP16", "pattern": "gaussian(default)", "size": 64, "iterations": 1500}`,
		`{"dtype": "FP16-T", "pattern": "gaussian(mean=500, std=1)", "size": 64, "iterations": 1200}`,
		`{"dtype": "INT8", "pattern": "constant(7)", "size": 128, "iterations": 900}`,
		`{"id": "pinned-h100", "device": "H100-SXM5-80GB", "dtype": "FP16", "pattern": "gaussian(default) | sparsify(50%)", "size": 64, "iterations": 1000}`,
		`{"dtype": "FP16", "pattern": "gaussian(default)", "size": 64, "iterations": 1500}`,
	}
	for _, body := range wave1 {
		if code, m := postJob(t, srv.URL, body); code != http.StatusOK {
			t.Fatalf("POST /jobs = %d: %v", code, m)
		}
	}
	waitDrained(t, srv.URL)

	wave2 := []string{
		`{"dtype": "FP16-T", "pattern": "gaussian(default) | zerolsb(8)", "size": 128, "iterations": 800}`,
		`{"dtype": "INT8", "pattern": "constant(7)", "size": 128, "iterations": 900}`,
	}
	for _, body := range wave2 {
		if code, m := postJob(t, srv.URL, body); code != http.StatusOK {
			t.Fatalf("POST /jobs = %d: %v", code, m)
		}
	}
	waitDrained(t, srv.URL)

	code, traceBytes := getJSON(t, srv.URL+"/fleet/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /fleet/trace = %d: %s", code, traceBytes)
	}
	code, liveReport := getJSON(t, srv.URL+"/fleet/report")
	if code != http.StatusOK {
		t.Fatalf("GET /fleet/report = %d: %s", code, liveReport)
	}

	trace, err := ReadTrace(bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatalf("recorded trace does not load: %v", err)
	}
	if len(trace.Jobs) != len(wave1)+len(wave2) {
		t.Fatalf("trace has %d jobs, want %d", len(trace.Jobs), len(wave1)+len(wave2))
	}

	// Replay offline with an equal config and a fresh oracle.
	offline, err := Run(context.Background(), liveConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	var offlineBuf bytes.Buffer
	if err := offline.WriteJSON(&offlineBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveReport, offlineBuf.Bytes()) {
		t.Errorf("live report != offline replay\nlive:\n%s\noffline:\n%s", liveReport, offlineBuf.Bytes())
	}
}

// TestLiveVirtualTimeCompressesIdleGaps pins the virtual-time design:
// wall-clock idle between drained waves must not advance the simulated
// clock, so the second wave's arrivals land immediately after the
// first wave's makespan.
func TestLiveVirtualTimeCompressesIdleGaps(t *testing.T) {
	ctl, err := NewController(liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	if code, m := postJob(t, srv.URL, `{"dtype": "FP16", "pattern": "gaussian(default)", "size": 64, "iterations": 1000}`); code != http.StatusOK {
		t.Fatalf("POST /jobs = %d: %v", code, m)
	}
	waitDrained(t, srv.URL)
	_, b := getJSON(t, srv.URL+"/fleet/status")
	var st FleetStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	drainedAt := st.NowS

	// Real wall-clock idle, no simulated time.
	time.Sleep(50 * time.Millisecond)
	_, m := postJob(t, srv.URL, `{"dtype": "FP16", "pattern": "gaussian(default)", "size": 64, "iterations": 1000}`)
	arrival, ok := m["arrival_s"].(float64)
	if !ok {
		t.Fatalf("POST /jobs response lacks arrival_s: %v", m)
	}
	if arrival != drainedAt {
		t.Errorf("second-wave arrival %v, want the drained clock %v (idle gap must compress)", arrival, drainedAt)
	}
	waitDrained(t, srv.URL)
}

// TestLiveControllerHTTPErrors covers the controller's rejection paths.
func TestLiveControllerHTTPErrors(t *testing.T) {
	ctl, err := NewController(liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	// Report and trace before any submission: conflict, not a zero
	// report — an empty session has nothing replayable.
	if code, b := getJSON(t, srv.URL+"/fleet/report"); code != http.StatusConflict {
		t.Errorf("GET /fleet/report before jobs = %d: %s", code, b)
	}
	if code, b := getJSON(t, srv.URL+"/fleet/trace"); code != http.StatusConflict {
		t.Errorf("GET /fleet/trace before jobs = %d: %s", code, b)
	}
	// Unknown job id.
	if code, b := getJSON(t, srv.URL+"/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("GET /jobs/nope = %d: %s", code, b)
	}

	// Validation failures: unknown dtype, bad pattern, unknown fields,
	// unknown pinned device.
	for _, bad := range []string{
		`{"dtype": "FP7", "pattern": "gaussian(default)", "size": 64, "iterations": 100}`,
		`{"dtype": "FP16", "pattern": "nope(", "size": 64, "iterations": 100}`,
		`{"dtype": "FP16", "pattern": "gaussian(default)", "size": 64, "iterations": 100, "arrival_s": 5}`,
		`{"device": "TPU", "dtype": "FP16", "pattern": "gaussian(default)", "size": 64, "iterations": 100}`,
	} {
		if code, m := postJob(t, srv.URL, bad); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d (%v), want 400", bad, code, m)
		}
	}

	// Duplicate explicit ID: conflict.
	ok := `{"id": "dup", "dtype": "FP16", "pattern": "gaussian(default)", "size": 64, "iterations": 500}`
	if code, m := postJob(t, srv.URL, ok); code != http.StatusOK {
		t.Fatalf("POST = %d: %v", code, m)
	}
	if code, _ := postJob(t, srv.URL, ok); code != http.StatusConflict {
		t.Errorf("duplicate ID POST = %d, want 409", code)
	}

	// Job status reflects the lifecycle once drained.
	waitDrained(t, srv.URL)
	code, b := getJSON(t, srv.URL+"/jobs/dup")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/dup = %d: %s", code, b)
	}
	var js JobStatus
	if err := json.Unmarshal(b, &js); err != nil {
		t.Fatal(err)
	}
	if js.Status != string(phaseCompleted) || js.Instance == "" || js.FinishS <= 0 {
		t.Errorf("drained job status = %+v, want completed with instance and finish time", js)
	}

	// Healthz is alive and JSON.
	if code, b := getJSON(t, srv.URL+"/healthz"); code != http.StatusOK || !bytes.Contains(b, []byte(`"ok"`)) {
		t.Errorf("GET /healthz = %d: %s", code, b)
	}
}

// countingOracle counts the Resolve calls that reach its inner oracle.
type countingOracle struct {
	inner Oracle
	calls atomic.Int64
}

func (o *countingOracle) Resolve(ctx context.Context, keys []OpKey) ([]OperatingPoint, error) {
	o.calls.Add(1)
	return o.inner.Resolve(ctx, keys)
}

// TestLiveSubmitSizeBound holds POST /jobs to /predict's default size
// bound: size 513 is a 400 that never reaches the oracle, and size 512
// is accepted.
func TestLiveSubmitSizeBound(t *testing.T) {
	oracle := &countingOracle{inner: &ModelOracle{SampleOutputs: 64}}
	cfg := liveConfig()
	cfg.Oracle = oracle
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	tooBig := `{"dtype": "FP16", "pattern": "constant(7)", "size": 513, "iterations": 100}`
	if code, m := postJob(t, srv.URL, tooBig); code != http.StatusBadRequest {
		t.Errorf("POST size 513 = %d (%v), want 400", code, m)
	}
	if n := oracle.calls.Load(); n != 0 {
		t.Errorf("size 513 reached the oracle: %d Resolve calls", n)
	}
	largest := `{"dtype": "FP16", "pattern": "constant(7)", "size": 512, "iterations": 100}`
	if code, m := postJob(t, srv.URL, largest); code != http.StatusOK {
		t.Fatalf("POST size 512 = %d (%v), want 200", code, m)
	}
	if n := oracle.calls.Load(); n != 1 {
		t.Errorf("size 512: %d Resolve calls, want 1", n)
	}
	waitDrained(t, srv.URL)
}

// TestLiveStatusCountsAndMetrics checks the /fleet/status reduction:
// counts add up, the MetricSet snapshot is present, and instances are
// listed in fleet order.
func TestLiveStatusCountsAndMetrics(t *testing.T) {
	ctl, err := NewController(liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	const n = 4
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"dtype": "FP16", "pattern": "gaussian(default)", "size": 64, "iterations": %d}`, 500+100*i)
		if code, m := postJob(t, srv.URL, body); code != http.StatusOK {
			t.Fatalf("POST /jobs = %d: %v", code, m)
		}
	}
	waitDrained(t, srv.URL)

	_, b := getJSON(t, srv.URL+"/fleet/status")
	var st FleetStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted != n || st.Completed != n || st.Failed != 0 {
		t.Errorf("status counts = %+v, want %d submitted and completed", st, n)
	}
	if st.Pending+st.Queued+st.Running != 0 {
		t.Errorf("drained fleet still has in-flight counts: %+v", st)
	}
	if st.Metrics["fleet.jobs.submitted"] != n || st.Metrics["fleet.jobs.completed"] != n {
		t.Errorf("metrics snapshot = %v, want %d submitted/completed", st.Metrics, n)
	}
	if st.Metrics["fleet.jobs.running"] != 0 || st.Metrics["fleet.jobs.running.max"] < 1 {
		t.Errorf("running gauge = %d (max %d), want 0 with positive high-water",
			st.Metrics["fleet.jobs.running"], st.Metrics["fleet.jobs.running.max"])
	}
	if len(st.Instances) != 3 || st.Instances[0].Device != "A100-PCIe-40GB#0" || st.Instances[2].Model != "H100-SXM5-80GB" {
		t.Errorf("instances = %+v", st.Instances)
	}
	var ran int
	for _, in := range st.Instances {
		ran += in.JobsRun
	}
	if ran != n {
		t.Errorf("instances ran %d jobs total, want %d", ran, n)
	}
}
