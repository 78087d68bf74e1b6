package main

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/serve"
)

// bareBackend implements serve.Backend and no optional interface.
type bareBackend struct{ serve.Backend }

func TestTraceBackendKeepsCapabilities(t *testing.T) {
	core := serve.NewCore(serve.Config{})
	defer core.Close()
	rec := newRecorder()
	for _, b := range []serve.Backend{
		core,
		cluster.NewHTTPBackend("http://127.0.0.1:1", nil),
		bareBackend{core},
	} {
		w, err := traceBackend(b, rec, "x")
		if err != nil {
			t.Fatalf("%T: %v", b, err)
		}
		if got, want := capabilities(w), capabilities(b); got != want {
			t.Errorf("%T: wrapped capabilities %v, want %v", b, got, want)
		}
	}
	// The router has the tracer trio but no cache migration: a set the
	// decorators do not reproduce, so wrapping it must fail loudly.
	router, err := cluster.New(cluster.Config{Shards: []cluster.Shard{{Name: "s", Backend: core}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traceBackend(router, rec, "x"); err == nil {
		t.Error("wrapping a backend with an uncovered capability set succeeded")
	}
}

func TestTraceBackendForwardsCalls(t *testing.T) {
	core := serve.NewCore(serve.Config{})
	defer core.Close()
	rec := newRecorder()
	w, err := traceBackend(core, rec, "serve.core")
	if err != nil {
		t.Fatal(err)
	}
	if w.(serve.TracerProvider).Tracer() != core.Tracer() {
		t.Error("Tracer not forwarded")
	}
	rec.on.Store(true)
	req := serve.PredictRequest{Pattern: "gaussian(default)", Size: 16}
	ctx := withSpan(context.Background(), 42)
	if _, err := w.Predict(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Predict(ctx, req); err != nil {
		t.Fatal(err)
	}
	ix := indexSpans(rec.snapshot())
	if len(ix.byName["serve.core.predict.miss"]) != 1 || len(ix.byName["serve.core.predict.hit"]) != 1 {
		t.Fatalf("spans by name: %v", ix.byName)
	}
	if len(ix.children[42]) != 2 {
		t.Errorf("spans not parented on the context's span: %v", ix.children)
	}
}

func TestTracedOracleForwardsStats(t *testing.T) {
	o := fleet.NewModelOracle()
	var w fleet.Oracle = tracedOracle{inner: o, rec: newRecorder()}
	key := fleet.OpKey{Device: "A100-PCIe-40GB", DType: "FP16", Pattern: "gaussian(default)", Size: 16}
	if _, err := w.Resolve(context.Background(), []fleet.OpKey{key, key}); err != nil {
		t.Fatal(err)
	}
	s, ok := w.(statsOracle)
	if !ok || s.Stats() != o.Stats() || s.Stats().Lookups != 2 {
		t.Errorf("stats not forwarded: %v", ok)
	}
}

func TestTracePolicyKeepsHorizon(t *testing.T) {
	rec := newRecorder()
	for _, p := range sched.All() {
		w, _ := tracePolicy(p, rec)
		if w.Name() != p.Name() {
			t.Errorf("name %q, want %q", w.Name(), p.Name())
		}
		ha, inner := p.(sched.HorizonAware)
		wha, wrapped := w.(sched.HorizonAware)
		if inner != wrapped {
			t.Errorf("%s: HorizonAware %v after wrapping, %v before", p.Name(), wrapped, inner)
		}
		if inner && ha.HorizonWindowS() != wha.HorizonWindowS() {
			t.Errorf("%s: window %g, want %g", p.Name(), wha.HorizonWindowS(), ha.HorizonWindowS())
		}
	}
}

// runOps sets a workload up at a seed other than defaultSeed, runs n
// ops per client and returns the output digest.
func runOps(t *testing.T, w workload, rec *recorder, n int) string {
	t.Helper()
	s, err := w.setup(defaultSeed+1, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if rec != nil {
		rec.on.Store(true)
	}
	for c := 0; c < w.clients; c++ {
		for seq := 0; seq < n; seq++ {
			if _, err := s.op(c, seq); err != nil {
				t.Fatalf("client %d op %d: %v", c, seq, err)
			}
		}
	}
	digest, _, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

// The traced run's outputs must equal the untraced run's. (The
// committed digests are checked by every run at defaultSeed instead: a
// -race build computes some simulated values to different bits.)
func TestTracedDigestsMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads twice")
	}
	for _, w := range []workload{serveRingWorkload, fleetCompareWorkload} {
		plain := runOps(t, w, nil, 2)
		rec := newRecorder()
		traced := runOps(t, w, rec, 2)
		if plain != traced {
			t.Errorf("%s: traced digest %s, untraced %s", w.name, traced, plain)
		}
		if len(rec.snapshot()) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
	}
}
