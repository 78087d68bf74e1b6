package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// sleepCtx sleeps for ms milliseconds or until ctx is done, whichever
// comes first, returning ctx's error in the latter case.
func sleepCtx(ctx context.Context, ms int) error {
	if ms <= 0 {
		ms = DefaultDelayMS
	}
	t := time.NewTimer(time.Duration(ms) * time.Millisecond)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Transport applies a Plan's schedule for one shard to outgoing HTTP
// requests: an http.RoundTripper wrapper that counts eligible requests
// and injects the scheduled fault, forwarding everything else to the
// wrapped transport untouched. In-process chaos tests wrap shard
// clients with it, and cmd/chaosproxy runs it behind an
// httputil.ReverseProxy, so the same plan injects the same faults
// whether the shards are httptest servers or real binaries.
//
// Only POST requests count toward (and are eligible for) the schedule;
// GET traffic — health, readiness and metrics probes — passes through
// unfaulted so that polling cannot shift fault indices between runs.
// FaultGET opts specific GET path prefixes into the schedule (e.g.
// /cache/export, so a resize chaos test can fault a donor's handoff)
// without making probe polling schedule-visible.
type Transport struct {
	plan        *Plan
	shard       int
	next        http.RoundTripper
	getPrefixes []string
	count       atomic.Int64

	metrics   *obs.MetricSet
	requests  *obs.Counter
	forwarded *obs.Counter
}

// NewTransport wraps next (nil = http.DefaultTransport) with the fault
// schedule plan holds for shard.
func NewTransport(plan *Plan, shard int, next http.RoundTripper) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	t := &Transport{plan: plan, shard: shard, next: next, metrics: obs.NewMetricSet()}
	t.requests = t.metrics.Counter("chaos.requests")
	t.forwarded = t.metrics.Counter("chaos.forwarded")
	// Register every kind up front so a fault-free run still reports
	// zeroed counters.
	for _, k := range Kinds() {
		t.metrics.Counter("chaos.injected." + string(k))
	}
	return t
}

// FaultGET makes GET requests whose path starts with any of the given
// prefixes count toward (and be eligible for) the fault schedule, like
// POSTs. It returns the transport for chaining at construction time;
// it is not safe to call after traffic has started.
// Only TestChaosDuringResize calls it.
func (t *Transport) FaultGET(prefixes ...string) *Transport {
	t.getPrefixes = append(t.getPrefixes, prefixes...)
	return t
}

// Metrics returns what the transport did: chaos.requests (requests
// counted toward the schedule), chaos.forwarded (requests passed to
// the wrapped transport, so the upstream saw them) and one
// chaos.injected.<kind> counter per fault kind.
func (t *Transport) Metrics() *obs.MetricSet { return t.metrics }

// eligible reports whether the request counts toward the schedule.
func (t *Transport) eligible(req *http.Request) bool {
	if req.Method == http.MethodPost {
		return true
	}
	if req.Method == http.MethodGet {
		for _, p := range t.getPrefixes {
			if strings.HasPrefix(req.URL.Path, p) {
				return true
			}
		}
	}
	return false
}

// forward passes req to the wrapped transport.
func (t *Transport) forward(req *http.Request) (*http.Response, error) {
	t.forwarded.Inc()
	return t.next.RoundTrip(req)
}

// RoundTrip implements http.RoundTripper, injecting the scheduled
// fault for this request's index if the plan has one.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.eligible(req) {
		return t.forward(req)
	}
	t.requests.Inc()
	idx := int(t.count.Add(1) - 1)
	ev, ok := t.plan.Lookup(t.shard, idx)
	if !ok {
		return t.forward(req)
	}
	t.metrics.Counter("chaos.injected." + string(ev.Kind)).Inc()
	switch ev.Kind {
	case KindRefuse:
		return nil, fmt.Errorf("faultinject: shard %d request %d: connection refused", t.shard, idx)
	case KindHang:
		// Read the body first: an http.Server watches for its client
		// going away only once the request body is read, so behind a
		// ReverseProxy the context would otherwise never end. A read
		// error changes nothing; the hang still waits for the context.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		<-req.Context().Done()
		return nil, req.Context().Err()
	case KindDelay:
		if err := sleepCtx(req.Context(), ev.DelayMS); err != nil {
			return nil, err
		}
		return t.forward(req)
	case KindError5xx:
		// A non-JSON 503, as a sick proxy would emit: the cluster client
		// cannot decode it and classifies the attempt as transport-level.
		body := fmt.Sprintf("fault injected: shard %d request %d unavailable\n", t.shard, idx)
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      req.Proto,
			ProtoMajor: req.ProtoMajor,
			ProtoMinor: req.ProtoMinor,
			Header:     http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:       io.NopCloser(strings.NewReader(body)),
			Request:    req,
		}, nil
	case KindTruncate:
		resp, err := t.forward(req)
		if err != nil {
			return nil, err
		}
		return truncateResponse(resp)
	default:
		return t.forward(req)
	}
}

// truncateResponse replaces resp's body with one that yields half the
// bytes and then fails with io.ErrUnexpectedEOF, as a connection cut
// mid-transfer would. The upstream has fully processed the request.
func truncateResponse(resp *http.Response) (*http.Response, error) {
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = &truncatedBody{data: full[:len(full)/2]}
	resp.ContentLength = int64(len(full))
	return resp, nil
}

type truncatedBody struct {
	data []byte
	r    *bytes.Reader
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.r == nil {
		b.r = bytes.NewReader(b.data)
	}
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return nil }
