package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// oracleServeConfig is a small serving config for oracle tests.
func oracleServeConfig() serve.Config {
	return serve.Config{
		CacheSize:     64,
		MaxSize:       192,
		SampleOutputs: 32,
		Training: experiments.TrainingConfig{
			Sizes: []int{24, 32, 48},
			Patterns: []string{
				"gaussian(default)",
				"gaussian(mean=500, std=1)",
				"constant(7)",
				"constant(random)",
				"set(n=4, mean=0, std=210)",
				"gaussian(default) | sparsify(50%)",
				"gaussian(default) | sort(rows, 100%)",
			},
			SampleOutputs: 32,
			Seed:          1,
		},
	}
}

// startRouter spins n in-process shards behind a powerrouter-shaped
// HTTP front and returns its base URL.
func startRouter(t *testing.T, shards int) string {
	t.Helper()
	cfg := cluster.Config{MaxSize: 192}
	for i := 0; i < shards; i++ {
		core := serve.NewCore(oracleServeConfig())
		t.Cleanup(core.Close)
		srv := httptest.NewServer(serve.Handler(core))
		t.Cleanup(srv.Close)
		cfg.Shards = append(cfg.Shards, cluster.Shard{
			Name:    srv.URL,
			Backend: cluster.NewHTTPBackend(srv.URL, nil),
		})
	}
	client, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	router := httptest.NewServer(serve.Handler(client))
	t.Cleanup(router.Close)
	return router.URL
}

func TestHTTPOraclePerItemError(t *testing.T) {
	// A batch item the server rejects (bad key) must fail the Resolve
	// with the offending key named — a fleet cannot schedule a job it
	// has no operating point for.
	core := serve.NewCore(oracleServeConfig())
	t.Cleanup(core.Close)
	srv := httptest.NewServer(serve.Handler(core))
	t.Cleanup(srv.Close)

	o := BackendOracle(cluster.NewHTTPBackend(srv.URL, nil))
	keys := []OpKey{
		{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "constant(1)", Size: 32},
		{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "zorp(", Size: 32},
	}
	_, err := o.Resolve(context.Background(), keys)
	if err == nil {
		t.Fatal("resolve with an invalid key must fail")
	}
	if !strings.Contains(err.Error(), "zorp") {
		t.Errorf("error %q does not name the offending key", err)
	}

	// The valid-only subset still resolves.
	ops, err := o.Resolve(context.Background(), keys[:1])
	if err != nil {
		t.Fatal(err)
	}
	if ops[0].PowerW <= 0 {
		t.Errorf("operating point power = %v, want > 0", ops[0].PowerW)
	}
}

func TestHTTPOracleServerDown(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // connections now refused

	o := BackendOracle(cluster.NewHTTPBackend(srv.URL, nil))
	_, err := o.Resolve(context.Background(), []OpKey{
		{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "constant(1)", Size: 32},
	})
	if err == nil {
		t.Fatal("resolve against a dead server must fail")
	}
}

func TestHTTPOracleMalformedResponse(t *testing.T) {
	cases := map[string]http.HandlerFunc{
		"garbage-200": func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "<html>not json</html>")
		},
		"short-items": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"items": [], "distinct": 0, "coalesced": 0}`)
		},
		"error-status": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		},
	}
	for name, handler := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(handler)
			t.Cleanup(srv.Close)
			o := BackendOracle(cluster.NewHTTPBackend(srv.URL, nil))
			_, err := o.Resolve(context.Background(), []OpKey{
				{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "constant(1)", Size: 32},
			})
			if err == nil {
				t.Fatal("malformed response must fail the resolve")
			}
		})
	}
}

func TestHTTPOracleContextCancellation(t *testing.T) {
	// A server that never answers: cancelling the context must abort
	// the resolve promptly instead of hanging a fleet tick.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)

	o := BackendOracle(cluster.NewHTTPBackend(srv.URL, nil))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := o.Resolve(ctx, []OpKey{
		{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "constant(1)", Size: 32},
	})
	if err == nil {
		t.Fatal("cancelled resolve must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("resolve took %v to notice cancellation", elapsed)
	}
}

func TestHTTPOracleAgainstRouterEquivalence(t *testing.T) {
	// The fleet oracle pointed at a single node and at a 2-shard
	// router must produce identical operating points — the oracle is
	// unchanged, the router is just another base URL.
	single := serve.NewCore(oracleServeConfig())
	t.Cleanup(single.Close)
	singleSrv := httptest.NewServer(serve.Handler(single))
	t.Cleanup(singleSrv.Close)

	keys := []OpKey{
		{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "constant(1)", Size: 32},
		{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "constant(2)", Size: 48},
		{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "constant(1)", Size: 32}, // duplicate
		{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "gaussian(default)", Size: 24},
	}
	want, err := BackendOracle(cluster.NewHTTPBackend(singleSrv.URL, nil)).Resolve(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}

	routerURL := startRouter(t, 2)
	got, err := BackendOracle(cluster.NewHTTPBackend(routerURL, nil)).Resolve(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key %d: router operating point %+v != single-node %+v", i, got[i], want[i])
		}
	}
}

func TestHTTPBackendOracleRunMatchesModelOracle(t *testing.T) {
	// The -serve path end to end: a fleet run whose operating points
	// travel over HTTP to a serving node must reach the same physical
	// outcome as the offline model oracle at the same fidelity.
	tr, err := Synthetic(SyntheticConfig{
		Jobs: 12, RatePerS: 400, Seed: 9,
		DTypes: []string{"FP16", "INT8"}, Patterns: []string{"gaussian(default)", "constant(7)"},
		Sizes: []int{32, 48}, MinIterations: 1000, MaxIterations: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	devs := []*device.Device{device.A100PCIe(), device.A100PCIe()}
	cfg := oracleServeConfig()

	offline, err := Run(context.Background(), Config{
		Devices: devs, Oracle: &ModelOracle{SampleOutputs: cfg.SampleOutputs},
	}, tr)
	if err != nil {
		t.Fatal(err)
	}

	core := serve.NewCore(cfg)
	t.Cleanup(core.Close)
	srv := httptest.NewServer(serve.Handler(core))
	t.Cleanup(srv.Close)
	backend := cluster.NewHTTPBackend(srv.URL, nil)
	t.Cleanup(backend.Close)
	served, err := Run(context.Background(), Config{Devices: devs, Oracle: BackendOracle(backend)}, tr)
	if err != nil {
		t.Fatal(err)
	}

	if served.DurationS != offline.DurationS {
		t.Errorf("makespan differs: served %v, offline %v", served.DurationS, offline.DurationS)
	}
	if served.FleetEnergyJ != offline.FleetEnergyJ {
		t.Errorf("fleet energy differs: served %v, offline %v", served.FleetEnergyJ, offline.FleetEnergyJ)
	}
	if served.Oracle.Lookups != offline.Oracle.Lookups || served.Oracle.Distinct != offline.Oracle.Distinct {
		t.Errorf("oracle stats differ: served %+v, offline %+v", served.Oracle, offline.Oracle)
	}
}
