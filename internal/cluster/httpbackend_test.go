package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// TestHTTPBackendRejectsTrailingBytes: a 200 body must hold exactly
// one JSON value. Bytes after it mean the body is not a response, so
// the call fails as a transport error after bytes arrived.
func TestHTTPBackendRejectsTrailingBytes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"device": "A100-PCIe-40GB", "cached": true} trailing`)
	}))
	defer srv.Close()
	b := NewHTTPBackend(srv.URL, nil)
	defer b.Close()

	_, err := b.Predict(context.Background(), serve.PredictRequest{})
	var te *TransportError
	if !errors.As(err, &te) || !te.Received || te.Timeout {
		t.Fatalf("error %v (%+v), want a received, non-timeout TransportError", err, te)
	}
}

// TestHTTPBackendLargeBodyNotPooled: a body past maxPooledBody (a cache
// export, say) decodes whole, but its buffer is not kept for reuse.
func TestHTTPBackendLargeBodyNotPooled(t *testing.T) {
	want := serve.MetricsResponse{Metrics: map[string]int64{}}
	for i := 0; len(want.Metrics)*40 < 2<<20; i++ {
		want.Metrics[fmt.Sprintf("bench.padding.%024d", i)] = int64(i)
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 2<<20 {
		t.Fatalf("body is %d bytes, want at least 2 MiB", len(body))
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	defer srv.Close()
	b := NewHTTPBackend(srv.URL, nil)
	defer b.Close()

	got := b.Metrics()
	if len(got) != len(want.Metrics) {
		t.Fatalf("decoded %d metrics, want %d", len(got), len(want.Metrics))
	}
	for k, v := range want.Metrics {
		if got[k] != v {
			t.Fatalf("metric %s = %d, want %d", k, got[k], v)
		}
	}
	// Whatever the pool holds now, none of it is the body's buffer.
	for i := 0; i < 64; i++ {
		buf := respBufs.Get().(*bytes.Buffer)
		if buf.Cap() > maxPooledBody {
			t.Fatalf("pool holds a %d-byte buffer, bound %d", buf.Cap(), maxPooledBody)
		}
	}
	if recycle(bytes.NewBuffer(make([]byte, 0, maxPooledBody+1))) {
		t.Error("recycle pooled a buffer past maxPooledBody")
	}
	if !recycle(bytes.NewBuffer(make([]byte, 0, maxPooledBody))) {
		t.Error("recycle dropped a buffer within maxPooledBody")
	}
}

// BenchmarkRouterPredict times the router hop on cache hits: a Client
// over three loopback HTTP shards whose keys are all cached. single is
// one /predict per op, batch one 32-item /predict/batch over 16 keys.
func BenchmarkRouterPredict(b *testing.B) {
	cores := newCores(b, 3)
	var shards []Shard
	for _, c := range cores {
		srv := httptest.NewServer(serve.Handler(c))
		b.Cleanup(srv.Close)
		shards = append(shards, Shard{Name: srv.URL, Backend: NewHTTPBackend(srv.URL, nil)})
	}
	client, err := New(Config{Shards: shards, MaxSize: 192})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(client.Close)

	var keys []serve.PredictRequest
	for _, dtype := range []string{"FP16", "INT8"} {
		for _, pattern := range []string{"gaussian(default)", "gaussian(default) | sparsify(50%)", "gaussian(default) | sort(rows, 50%)", "constant(7)"} {
			for _, size := range []int{32, 48} {
				keys = append(keys, serve.PredictRequest{DType: dtype, Pattern: pattern, Size: size})
			}
		}
	}
	batch := serve.BatchRequest{Requests: make([]serve.PredictRequest, 32)}
	for i := range batch.Requests {
		batch.Requests[i] = keys[(i*7)%len(keys)]
	}
	ctx := context.Background()
	if _, err := client.PredictBatch(ctx, serve.BatchRequest{Requests: keys}); err != nil {
		b.Fatal(err)
	}

	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := client.Predict(ctx, keys[i%len(keys)])
			if err != nil || !resp.Cached {
				b.Fatalf("predict: %v (cached %v)", err, resp != nil && resp.Cached)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := client.PredictBatch(ctx, batch)
			if err != nil || resp.Distinct != len(keys) {
				b.Fatalf("batch: %v", err)
			}
		}
	})
}
