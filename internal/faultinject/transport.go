package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
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
// wrapped transport untouched. It is the in-process twin of
// cmd/chaosproxy — same plan, same counting rule, same fault
// semantics — so a chaos test can move between httptest servers and
// real binaries without changing its schedule.
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

	mu    sync.Mutex
	count int
}

// NewTransport wraps next (nil = http.DefaultTransport) with the fault
// schedule plan holds for shard.
// Only tests call it: TestChaosEquivalence and TestChaosDuringResize
// wrap shard clients with it (cmd/chaosproxy applies a plan as a proxy
// instead).
func NewTransport(plan *Plan, shard int, next http.RoundTripper) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Transport{plan: plan, shard: shard, next: next}
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

// Requests reports how many schedule-eligible (POST) requests have
// passed through so far.
// Only TestTransportCountsOnlyPosts calls it.
func (t *Transport) Requests() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// RoundTrip implements http.RoundTripper, injecting the scheduled
// fault for this request's index if the plan has one.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.eligible(req) {
		return t.next.RoundTrip(req)
	}
	t.mu.Lock()
	idx := t.count
	t.count++
	t.mu.Unlock()

	ev, ok := t.plan.Lookup(t.shard, idx)
	if !ok {
		return t.next.RoundTrip(req)
	}
	switch ev.Kind {
	case KindRefuse:
		return nil, fmt.Errorf("faultinject: shard %d request %d: connection refused", t.shard, idx)
	case KindHang:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case KindDelay:
		if err := sleepCtx(req.Context(), ev.DelayMS); err != nil {
			return nil, err
		}
		return t.next.RoundTrip(req)
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
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return truncateResponse(resp)
	default:
		return t.next.RoundTrip(req)
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
