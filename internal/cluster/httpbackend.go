package cluster

// HTTPBackend speaks the serve HTTP API as a serve.Backend, so a
// remote powerserve process can stand wherever an in-process Core can:
// as a ring shard behind Client, or directly. Transport-level failures
// (unreachable host, non-JSON garbage where a response should be) are
// reported as *TransportError so the cluster client can distinguish "a
// shard is down, re-route" from "the computation itself rejected the
// request", which is deterministic and identical on every shard.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TransportError reports that a shard could not be reached or answered
// with something that is not a response (connection refused, timeout,
// malformed body). It is the signal the cluster client re-routes on;
// every other error is an answer, not an outage.
type TransportError struct {
	// Shard names the unreachable backend (its base URL).
	Shard string
	// Err is the underlying failure.
	Err error
	// Timeout marks an attempt that died to a deadline the transport
	// layer owned (the backend's request timeout or the cluster
	// client's per-attempt deadline) while the caller's own context was
	// still live — an outage signal, unlike caller cancellation, which
	// is never a TransportError at all.
	Timeout bool
	// Received marks that response bytes arrived before the failure
	// (truncated body, undecodable payload): the shard processed the
	// request even though the caller never got the answer. The retry
	// layer must not replay such an attempt on the same shard — the
	// work happened — so it fails over instead.
	Received bool
}

// Error formats the transport failure.
func (e *TransportError) Error() string {
	return fmt.Sprintf("cluster: shard %s unreachable: %v", e.Shard, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *TransportError) Unwrap() error { return e.Err }

// Default HTTPBackend deadlines, applied only when the caller's
// context carries none of its own.
const (
	// DefaultRequestTimeout bounds one POST round trip when the caller
	// supplied no deadline — wide enough for the slow /train path.
	DefaultRequestTimeout = 5 * time.Minute
	// DefaultMetricsTimeout bounds the advisory Metrics fetch, which
	// has no caller context to inherit a deadline from.
	DefaultMetricsTimeout = 2 * time.Second
)

// BackendConfig tunes an HTTPBackend's request deadline. The zero
// value is the historical 5-minute default; a negative value disables
// it so only caller-supplied deadlines apply.
type BackendConfig struct {
	// RequestTimeout is the deadline applied to a request whose caller
	// context has none (0 = DefaultRequestTimeout, negative = none).
	// Callers that do carry a deadline — e.g. the cluster client's
	// per-attempt timeout — always win: this default is a backstop, not
	// a cap.
	RequestTimeout time.Duration
}

func (c BackendConfig) withDefaults() BackendConfig {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	return c
}

// HTTPBackend implements serve.Backend over a powerserve (or nested
// powerrouter) base URL.
type HTTPBackend struct {
	base   string
	client *http.Client
	cfg    BackendConfig
}

// NewHTTPBackend wraps a server root, e.g. "http://shard0:8090", with
// default deadlines (client nil = a dedicated client with a connection
// pool deep enough that a router fanning out a concurrent batch load
// does not churn shard connections — net/http's default of 2 idle
// conns per host collapses under fan-out concurrency).
func NewHTTPBackend(baseURL string, client *http.Client) *HTTPBackend {
	return NewHTTPBackendConfig(baseURL, client, BackendConfig{})
}

// NewHTTPBackendConfig is NewHTTPBackend with explicit deadline
// configuration. Deadlines live here, not on http.Client.Timeout: a
// client-level timeout would silently cap every caller-supplied
// context, while these defaults only fill in when the caller brought
// no deadline at all.
func NewHTTPBackendConfig(baseURL string, client *http.Client, cfg BackendConfig) *HTTPBackend {
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return &HTTPBackend{base: baseURL, client: client, cfg: cfg.withDefaults()}
}

// Predict forwards one prediction to the shard.
func (b *HTTPBackend) Predict(ctx context.Context, req serve.PredictRequest) (*serve.PredictResponse, error) {
	var resp serve.PredictResponse
	if err := b.post(ctx, "/predict", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PredictBatch forwards a batch to the shard.
func (b *HTTPBackend) PredictBatch(ctx context.Context, req serve.BatchRequest) (*serve.BatchResponse, error) {
	var resp serve.BatchResponse
	if err := b.post(ctx, "/predict/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Train forwards a retrain to the shard.
func (b *HTTPBackend) Train(ctx context.Context, req serve.TrainRequest) (*serve.TrainResponse, error) {
	var resp serve.TrainResponse
	if err := b.post(ctx, "/train", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health fetches the shard's /healthz.
func (b *HTTPBackend) Health(ctx context.Context) (*serve.HealthResponse, error) {
	var resp serve.HealthResponse
	if err := b.get(ctx, "/healthz", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the shard's /metrics snapshot, best-effort: an
// unreachable shard yields nil (the interface has no error slot, and
// metrics are advisory).
func (b *HTTPBackend) Metrics() map[string]int64 {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultMetricsTimeout)
	defer cancel()
	var resp serve.MetricsResponse
	if err := b.get(ctx, "/metrics", &resp); err != nil {
		return nil
	}
	return resp.Metrics
}

// ExportCache fetches the shard's cache entries in the given hash
// ranges via GET /cache/export, making a remote shard a handoff donor.
func (b *HTTPBackend) ExportCache(ctx context.Context, ranges []serve.HashRange) (*serve.CacheSnapshot, error) {
	path := "/cache/export"
	if enc := serve.FormatHashRanges(ranges); enc != "" {
		path += "?ranges=" + enc
	}
	var snap serve.CacheSnapshot
	if err := b.get(ctx, path, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// ImportCache hands a snapshot to the shard via POST /cache/import.
func (b *HTTPBackend) ImportCache(ctx context.Context, snap serve.CacheSnapshot) (*serve.CacheImportResult, error) {
	var res serve.CacheImportResult
	if err := b.post(ctx, "/cache/import", snap, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Close releases idle connections.
func (b *HTTPBackend) Close() { b.client.CloseIdleConnections() }

// post round-trips one JSON request/response pair.
func (b *HTTPBackend) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return b.do(ctx, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		// Carry the router's span across the hop so the shard's server
		// span joins the same trace as a child.
		obs.Inject(ctx, req.Header)
		return req, nil
	}, out)
}

// get round-trips one GET.
func (b *HTTPBackend) get(ctx context.Context, path string, out any) error {
	return b.do(ctx, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, b.base+path, nil)
	}, out)
}

// do executes the request and classifies the outcome: transport
// failures and malformed bodies become *TransportError, shard-side
// validation rejections become *serve.RequestError (so the router
// reports them as HTTP 400 with the shard's exact wording), everything
// else is an opaque server error. A 200 body is read whole into a
// pooled buffer and must hold exactly one JSON value: a failed read, a
// malformed value and trailing bytes after it are all Received
// transport errors. When the caller's context carries no deadline, the
// backend applies its own RequestTimeout and reports its expiry as a
// Timeout TransportError (an outage), never as the caller's
// cancellation.
func (b *HTTPBackend) do(callerCtx context.Context, build func(context.Context) (*http.Request, error), out any) error {
	ctx := callerCtx
	if b.cfg.RequestTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, b.cfg.RequestTimeout)
			defer cancel()
		}
	}
	req, err := build(ctx)
	if err != nil {
		return err
	}
	httpResp, err := b.client.Do(req)
	if err != nil {
		// A caller-cancelled context is the caller's doing, not an
		// outage; report it as such so the client does not mark the
		// shard down or re-route. Expiry of the backend's own default
		// deadline (caller context still live) IS an outage.
		if ctxErr := callerCtx.Err(); ctxErr != nil {
			return ctxErr
		}
		if ctx.Err() != nil {
			return &TransportError{Shard: b.base, Err: err, Timeout: true}
		}
		return &TransportError{Shard: b.base, Err: err}
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		raw, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
			return &TransportError{
				Shard:    b.base,
				Err:      fmt.Errorf("status %d with undecodable body %q", httpResp.StatusCode, truncate(raw, 128)),
				Received: true,
			}
		}
		if httpResp.StatusCode == http.StatusBadRequest {
			return serve.BadRequestf("%s", eb.Error)
		}
		return fmt.Errorf("cluster: shard %s: status %d: %s", b.base, httpResp.StatusCode, eb.Error)
	}
	buf := respBufs.Get().(*bytes.Buffer)
	defer recycle(buf)
	_, err = buf.ReadFrom(httpResp.Body)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), out)
	}
	if err != nil {
		if ctxErr := callerCtx.Err(); ctxErr != nil {
			return ctxErr
		}
		// Bytes arrived and then broke mid-body: the shard has done the
		// work. Received tells the retry layer to fail over rather than
		// replay the same shard.
		if ctx.Err() != nil {
			return &TransportError{Shard: b.base, Err: fmt.Errorf("malformed response: %w", err), Timeout: true, Received: true}
		}
		return &TransportError{Shard: b.base, Err: fmt.Errorf("malformed response: %w", err), Received: true}
	}
	return nil
}

// maxPooledBody is the capacity past which a response buffer is left
// to the collector instead of going back to respBufs: a cache export
// can run to megabytes, and a pooled buffer that size would stay
// resident for the odd request that needed it.
const maxPooledBody = 1 << 20

// respBufs recycles the buffers do reads 200 bodies into.
var respBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// recycle returns buf to respBufs unless it grew past maxPooledBody,
// and reports whether it did.
func recycle(buf *bytes.Buffer) bool {
	if buf.Cap() > maxPooledBody {
		return false
	}
	buf.Reset()
	respBufs.Put(buf)
	return true
}

func truncate(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	return b[:n]
}

// isTransport reports whether err (possibly wrapped) is a transport
// failure a client should re-route around.
func isTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

var (
	_ serve.Backend       = (*HTTPBackend)(nil)
	_ serve.CacheMigrator = (*HTTPBackend)(nil)
)
