package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// testServeConfig keeps shard-side simulation and training small
// enough for -race runs while leaving every mechanism engaged.
func testServeConfig() serve.Config {
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

// newCores builds n single-node backends and registers their cleanup.
func newCores(t testing.TB, n int) []*serve.Core {
	t.Helper()
	cores := make([]*serve.Core, n)
	for i := range cores {
		cores[i] = serve.NewCore(testServeConfig())
		t.Cleanup(cores[i].Close)
	}
	return cores
}

// coreShards wraps in-process cores as ring members.
func coreShards(cores []*serve.Core) []Shard {
	shards := make([]Shard, len(cores))
	for i, c := range cores {
		shards[i] = Shard{Name: fmt.Sprintf("core%d", i), Backend: c}
	}
	return shards
}

// deadBackend fails every call with a transport error, like a shard
// whose host is gone.
type deadBackend struct{ name string }

func (d *deadBackend) err() error {
	return &TransportError{Shard: d.name, Err: fmt.Errorf("connection refused")}
}

func (d *deadBackend) Predict(context.Context, serve.PredictRequest) (*serve.PredictResponse, error) {
	return nil, d.err()
}

func (d *deadBackend) PredictBatch(context.Context, serve.BatchRequest) (*serve.BatchResponse, error) {
	return nil, d.err()
}

func (d *deadBackend) Train(context.Context, serve.TrainRequest) (*serve.TrainResponse, error) {
	return nil, d.err()
}

func (d *deadBackend) Health(context.Context) (*serve.HealthResponse, error) { return nil, d.err() }
func (d *deadBackend) Metrics() map[string]int64                             { return nil }
func (d *deadBackend) Close()                                                {}

// testRequests is a small mixed-key workload: duplicates, equivalent
// spellings and several distinct keys.
func testRequests() []serve.PredictRequest {
	return []serve.PredictRequest{
		{DType: "FP16", Pattern: "constant(1)", Size: 32},
		{DType: "FP16", Pattern: "constant(2)", Size: 32},
		{DType: "FP16", Pattern: "constant(1)", Size: 32},   // duplicate
		{DType: "FP16", Pattern: "constant( 1 )", Size: 32}, // equivalent spelling
		{DType: "FP16", Pattern: "gaussian(default)", Size: 48},
		{DType: "FP16", Pattern: "constant(3)", Size: 24},
	}
}

func TestClientPredictMatchesCore(t *testing.T) {
	cores := newCores(t, 3)
	client, err := New(Config{Shards: coreShards(cores), MaxSize: 192})
	if err != nil {
		t.Fatal(err)
	}
	reference := serve.NewCore(testServeConfig())
	t.Cleanup(reference.Close)

	for _, req := range testRequests() {
		got, err := client.Predict(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference.Predict(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.SimulatedW != want.SimulatedW || got.PredictedW != want.PredictedW ||
			got.Pattern != want.Pattern || got.IterTimeS != want.IterTimeS {
			t.Errorf("cluster answer %+v differs from single-node answer %+v", got, want)
		}
	}
}

func TestBatchMatchesSingleNodeAndSumsCoalescing(t *testing.T) {
	cores := newCores(t, 3)
	client, err := New(Config{Shards: coreShards(cores), MaxSize: 192})
	if err != nil {
		t.Fatal(err)
	}
	reference := serve.NewCore(testServeConfig())
	t.Cleanup(reference.Close)

	req := serve.BatchRequest{Requests: testRequests()}
	got, err := client.PredictBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference.PredictBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Distinct != want.Distinct || got.Coalesced != want.Coalesced {
		t.Errorf("cluster distinct/coalesced = %d/%d, single node %d/%d",
			got.Distinct, got.Coalesced, want.Distinct, want.Coalesced)
	}
	for i := range want.Items {
		g, w := got.Items[i], want.Items[i]
		if (g.Response == nil) != (w.Response == nil) || g.Error != w.Error {
			t.Fatalf("item %d shape differs: cluster %+v, single %+v", i, g, w)
		}
		if w.Response != nil && (g.Response.SimulatedW != w.Response.SimulatedW ||
			g.Response.Cached != w.Response.Cached) {
			t.Errorf("item %d: cluster %+v, single %+v", i, g.Response, w.Response)
		}
	}
}

func TestBatchPerItemErrorsMatchSingleNode(t *testing.T) {
	cores := newCores(t, 2)
	client, err := New(Config{Shards: coreShards(cores), MaxSize: 192})
	if err != nil {
		t.Fatal(err)
	}
	reference := serve.NewCore(testServeConfig())
	t.Cleanup(reference.Close)

	req := serve.BatchRequest{Requests: []serve.PredictRequest{
		{DType: "FP16", Pattern: "constant(1)", Size: 32},
		{Device: "TPU-v5", Size: 32},                       // unknown device
		{DType: "FP16", Pattern: "frobnicate(", Size: 32},  // bad pattern
		{DType: "FP16", Pattern: "constant(1)", Size: 4},   // size too small
		{DType: "FP16", Pattern: "constant(1)", Size: 500}, // above MaxSize
	}}
	got, err := client.PredictBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference.PredictBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Items {
		if got.Items[i].Error != want.Items[i].Error {
			t.Errorf("item %d error: cluster %q, single node %q", i, got.Items[i].Error, want.Items[i].Error)
		}
	}
	if got.Items[0].Response == nil {
		t.Error("valid item must still be answered")
	}
}

func TestBatchReroutesAroundDownShard(t *testing.T) {
	cores := newCores(t, 2)
	shards := []Shard{
		{Name: "core0", Backend: cores[0]},
		{Name: "dead", Backend: &deadBackend{name: "dead"}},
		{Name: "core1", Backend: cores[1]},
	}
	client, err := New(Config{Shards: shards, MaxSize: 192, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	reference := serve.NewCore(testServeConfig())
	t.Cleanup(reference.Close)

	// Build a workload that provably covers every shard, the dead one
	// included, by asking the ring who owns each candidate key.
	covered := make([]bool, len(shards))
	remaining := len(shards)
	var reqs []serve.PredictRequest
	for i := 0; remaining > 0 && i < 4096; i++ {
		pr := serve.PredictRequest{DType: "FP16", Pattern: fmt.Sprintf("constant(%d)", i), Size: 32}
		res, err := serve.ResolveRequest(pr, 192)
		if err != nil {
			t.Fatal(err)
		}
		if owner := client.Ring().Owner(res.Key.RouteString()); !covered[owner] {
			covered[owner] = true
			remaining--
			reqs = append(reqs, pr)
		}
	}
	if remaining > 0 {
		t.Fatal("could not construct keys covering every shard")
	}
	// Duplicate the first key so coalescing accounting is exercised
	// across the reroute.
	reqs = append(reqs, reqs[0])
	req := serve.BatchRequest{Requests: reqs}
	got, err := client.PredictBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference.PredictBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Items {
		if got.Items[i].Error != "" {
			t.Fatalf("item %d failed despite live fallbacks: %s", i, got.Items[i].Error)
		}
		if got.Items[i].Response.SimulatedW != want.Items[i].Response.SimulatedW {
			t.Errorf("item %d: rerouted answer %v != single-node %v",
				i, got.Items[i].Response.SimulatedW, want.Items[i].Response.SimulatedW)
		}
	}
	if got.Distinct != want.Distinct || got.Coalesced != want.Coalesced {
		t.Errorf("rerouted distinct/coalesced = %d/%d, want %d/%d",
			got.Distinct, got.Coalesced, want.Distinct, want.Coalesced)
	}

	m := client.Metrics()
	if m["cluster.shards.down"] < 1 {
		t.Errorf("down gauge = %d, want >= 1 (metrics: %v)", m["cluster.shards.down"], m)
	}

	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Errorf("health status %q, want degraded", h.Status)
	}
	var deadSeen bool
	for _, sh := range h.Shards {
		if sh.Name == "dead" {
			deadSeen = true
			if sh.Status != "down" {
				t.Errorf("dead shard reported %q", sh.Status)
			}
		}
	}
	if !deadSeen {
		t.Error("router health must list every shard")
	}
}

func TestAllShardsDown(t *testing.T) {
	shards := []Shard{
		{Name: "d0", Backend: &deadBackend{name: "d0"}},
		{Name: "d1", Backend: &deadBackend{name: "d1"}},
	}
	client, err := New(Config{Shards: shards, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := client.Predict(context.Background(), serve.PredictRequest{Size: 32}); err == nil {
		t.Fatal("predict with no live shard must fail")
	} else if !strings.Contains(err.Error(), "no shard available") {
		t.Errorf("unexpected error: %v", err)
	}

	resp, err := client.PredictBatch(context.Background(), serve.BatchRequest{
		Requests: []serve.PredictRequest{{Size: 32}, {Size: 48}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Items {
		if !strings.Contains(item.Error, "no shard available") {
			t.Errorf("item %d: %+v, want a no-shard error", i, item)
		}
	}

	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "down" {
		t.Errorf("health status %q, want down", h.Status)
	}
}

func TestMalformedShardResponseReroutes(t *testing.T) {
	// One shard answers 200 with non-JSON garbage; the client must
	// treat it as a transport failure and re-route to the healthy one.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html>this is not a batch response</html>")
	}))
	t.Cleanup(garbage.Close)
	cores := newCores(t, 1)
	healthy := httptest.NewServer(serve.Handler(cores[0]))
	t.Cleanup(healthy.Close)

	client, err := New(Config{
		Shards: []Shard{
			{Name: garbage.URL, Backend: NewHTTPBackend(garbage.URL, nil)},
			{Name: healthy.URL, Backend: NewHTTPBackend(healthy.URL, nil)},
		},
		MaxSize:  192,
		Cooldown: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	resp, err := client.PredictBatch(context.Background(), serve.BatchRequest{Requests: testRequests()})
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Items {
		if item.Error != "" || item.Response == nil {
			t.Fatalf("item %d not answered after reroute: %+v", i, item)
		}
	}
	if m := client.Metrics(); m["cluster.shard.errors"] == 0 {
		t.Error("malformed response must count as a shard error")
	}
}

func TestContextCancellationMidFanout(t *testing.T) {
	// A shard that never answers: cancelling the caller's context must
	// fail the items in-band with the context error and must NOT mark
	// the shard down (the caller hung up, the shard did not). The
	// handler drains the body first: the server only notices a client
	// disconnect (and so ever exits) once the request body is read.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(slow.Close)

	client, err := New(Config{
		Shards:  []Shard{{Name: slow.URL, Backend: NewHTTPBackend(slow.URL, nil)}},
		MaxSize: 192,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	resp, err := client.PredictBatch(ctx, serve.BatchRequest{
		Requests: []serve.PredictRequest{{DType: "FP16", Pattern: "constant(1)", Size: 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Items[0].Error, context.Canceled.Error()) {
		t.Errorf("item error %q, want the context error in-band", resp.Items[0].Error)
	}
	if m := client.Metrics(); m["cluster.shards.down"] != 0 {
		t.Errorf("cancellation must not mark the shard down (gauge=%d)", m["cluster.shards.down"])
	}

	// Predict propagates the cancellation as a request-level error.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := client.Predict(ctx2, serve.PredictRequest{Size: 32}); err == nil {
		t.Fatal("cancelled predict must fail")
	} else if isTransport(err) {
		t.Errorf("cancellation classified as transport failure: %v", err)
	}
}

func TestTrainBroadcastsAndSumsPurges(t *testing.T) {
	cores := newCores(t, 2)
	client, err := New(Config{Shards: coreShards(cores), MaxSize: 192})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the ring so both shards hold cache entries to purge.
	if _, err := client.PredictBatch(context.Background(), serve.BatchRequest{Requests: testRequests()}); err != nil {
		t.Fatal(err)
	}
	cached := cores[0].CacheLen() + cores[1].CacheLen()
	if cached == 0 {
		t.Fatal("warm-up cached nothing")
	}

	resp, err := client.Train(context.Background(), serve.TrainRequest{
		DType: "FP16", Sizes: []int{24, 32}, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Purged != cached {
		t.Errorf("train purged %d entries, want the ring-wide total %d", resp.Purged, cached)
	}

	// A broadcast with a dead shard must fail loudly, not half-train.
	shards := append(coreShards(cores), Shard{Name: "dead", Backend: &deadBackend{name: "dead"}})
	client2, err := New(Config{Shards: shards, MaxSize: 192, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client2.Train(context.Background(), serve.TrainRequest{DType: "FP16"}); err == nil {
		t.Fatal("train with an unreachable shard must fail")
	}
}

// TestRetryAbsorbsTransientFlake: with the default retry policy a
// single transport flake is retried on the same shard and answered —
// and a retried-then-successful shard must NOT be marked down.
func TestRetryAbsorbsTransientFlake(t *testing.T) {
	cores := newCores(t, 1)
	flaky := &flakyBackend{inner: cores[0], failures: 1}
	client, err := New(Config{
		Shards:    []Shard{{Name: "flaky", Backend: flaky}},
		MaxSize:   192,
		Cooldown:  time.Millisecond,
		RetryBase: time.Millisecond,
		RetryCap:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	req := serve.PredictRequest{DType: "FP16", Pattern: "constant(1)", Size: 32}
	if _, err := client.Predict(context.Background(), req); err != nil {
		t.Fatalf("retry must absorb a single flake: %v", err)
	}
	m := client.Metrics()
	if m["cluster.shards.down"] != 0 {
		t.Fatalf("retried-then-successful shard marked down (metrics: %v)", m)
	}
	if m["cluster.retry.attempts"] == 0 || m["cluster.retry.recovered"] == 0 {
		t.Fatalf("retry counters did not move (metrics: %v)", m)
	}
}

// TestShardRecoversAfterCooldown preserves the pre-retry semantics:
// with retries disabled a flaked shard fails the call, is marked down,
// and recovers through the half-open probe once the cooldown elapses.
func TestShardRecoversAfterCooldown(t *testing.T) {
	cores := newCores(t, 1)
	flaky := &flakyBackend{inner: cores[0], failures: 1}
	client, err := New(Config{
		Shards:     []Shard{{Name: "flaky", Backend: flaky}},
		MaxSize:    192,
		Cooldown:   time.Millisecond,
		MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	req := serve.PredictRequest{DType: "FP16", Pattern: "constant(1)", Size: 32}
	if _, err := client.Predict(context.Background(), req); err == nil {
		t.Fatal("first call must fail (shard flaked, retries disabled, no fallback)")
	}
	if m := client.Metrics(); m["cluster.shards.down"] != 1 {
		t.Fatalf("shard not marked down (metrics: %v)", m)
	}

	time.Sleep(5 * time.Millisecond) // let the cooldown elapse
	if _, err := client.Predict(context.Background(), req); err != nil {
		t.Fatalf("half-open probe after cooldown failed: %v", err)
	}
	if m := client.Metrics(); m["cluster.shards.down"] != 0 {
		t.Errorf("recovered shard still marked down (metrics: %v)", m)
	}
}

// flakyBackend fails its first N calls with transport errors, then
// delegates to the inner backend.
type flakyBackend struct {
	inner    serve.Backend
	failures int32
}

func (f *flakyBackend) flake() error {
	if atomic.AddInt32(&f.failures, -1) >= 0 {
		return &TransportError{Shard: "flaky", Err: fmt.Errorf("transient network failure")}
	}
	return nil
}

func (f *flakyBackend) Predict(ctx context.Context, req serve.PredictRequest) (*serve.PredictResponse, error) {
	if err := f.flake(); err != nil {
		return nil, err
	}
	return f.inner.Predict(ctx, req)
}

func (f *flakyBackend) PredictBatch(ctx context.Context, req serve.BatchRequest) (*serve.BatchResponse, error) {
	if err := f.flake(); err != nil {
		return nil, err
	}
	return f.inner.PredictBatch(ctx, req)
}

func (f *flakyBackend) Train(ctx context.Context, req serve.TrainRequest) (*serve.TrainResponse, error) {
	return f.inner.Train(ctx, req)
}

func (f *flakyBackend) Health(ctx context.Context) (*serve.HealthResponse, error) {
	return f.inner.Health(ctx)
}

func (f *flakyBackend) Metrics() map[string]int64 { return f.inner.Metrics() }
func (f *flakyBackend) Close()                    {}
