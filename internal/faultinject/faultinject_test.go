package faultinject

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Seed: 42, Shards: 3, Requests: 50, Rate: 0.3}
	a := Generate(spec)
	b := Generate(spec)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("same spec generated different plans")
	}
	if len(a.Events) == 0 {
		t.Fatalf("expected some events at rate 0.3 over 150 slots")
	}
	c := Generate(GenSpec{Seed: 43, Shards: 3, Requests: 50, Rate: 0.3})
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("different seeds generated identical plans")
	}
	for _, ev := range a.Events {
		if ev.Shard < 0 || ev.Shard >= 3 || ev.Request < 0 || ev.Request >= 50 {
			t.Fatalf("event out of spec bounds: %+v", ev)
		}
		if ev.Kind == KindDelay && ev.DelayMS != DefaultDelayMS {
			t.Fatalf("delay event missing default delay: %+v", ev)
		}
	}
}

func TestPlanJSONRoundtrip(t *testing.T) {
	p := Generate(GenSpec{Seed: 7, Shards: 2, Requests: 20, Rate: 0.5})
	var buf bytes.Buffer
	if err := p.WritePlan(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadPlan(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Seed != p.Seed || !reflect.DeepEqual(got.Events, p.Events) {
		t.Fatalf("roundtrip mismatch:\nwant %+v\ngot  %+v", p, got)
	}
}

func TestReadPlanRejectsBadKind(t *testing.T) {
	for _, tc := range []struct{ plan, want string }{
		{`{"events":[{"shard":0,"request":1,"kind":"explode"}]}`, "unknown kind"},
		{`{"events":[{"shard":-1,"request":0,"kind":"refuse"}]}`, "negative shard/request"},
		{`{"events":[{"shard":0,"request":2,"kind":"delay","delay_ms":-5}]}`, "negative delay_ms"},
		// Lookup could return only one of two events at an index.
		{`{"events":[{"shard":0,"request":2,"kind":"refuse"},{"shard":0,"request":2,"kind":"delay"}]}`, "duplicate event"},
	} {
		_, err := ReadPlan(strings.NewReader(tc.plan))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadPlan(%s): want %q error, got %v", tc.plan, tc.want, err)
		}
	}
}

func TestLookup(t *testing.T) {
	p := &Plan{Events: []Event{{Shard: 1, Request: 3, Kind: KindRefuse}}}
	if _, ok := p.Lookup(0, 3); ok {
		t.Fatalf("unexpected hit on wrong shard")
	}
	ev, ok := p.Lookup(1, 3)
	if !ok || ev.Kind != KindRefuse {
		t.Fatalf("want refuse at (1,3), got %+v ok=%v", ev, ok)
	}
}

// TestLookupConcurrentFirstUse makes the first Lookups on one plan from
// several goroutines at once, as Transports sharing a plan do; -race
// reports any write Lookup makes to the plan.
func TestLookupConcurrentFirstUse(t *testing.T) {
	const shards, requests = 4, 32
	p := Generate(GenSpec{Seed: 3, Shards: shards, Requests: requests, Rate: 0.5})
	var wg sync.WaitGroup
	for shard := 0; shard < shards; shard++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ev := range p.Events {
				if ev.Shard != shard {
					continue
				}
				if got, ok := p.Lookup(shard, ev.Request); !ok || got != ev {
					t.Errorf("Lookup(%d, %d) = %+v, %v; want %+v", shard, ev.Request, got, ok, ev)
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzReadPlan holds ReadPlan to its contract on any bytes: an input
// either fails, or loads as a plan that Validate accepts, that
// WritePlan and ReadPlan return with the same seed and events, and
// whose Lookup finds each event at its index.
func FuzzReadPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ReadPlan loaded a plan Validate rejects: %v", err)
		}
		var buf bytes.Buffer
		if err := p.WritePlan(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadPlan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written plan does not read back: %v\n%s", err, buf.Bytes())
		}
		if again.Seed != p.Seed || !reflect.DeepEqual(again.Events, p.Events) {
			t.Fatalf("plan changed on its round trip:\nread:    %+v\nreread:  %+v", p, again)
		}
		for _, ev := range p.Events {
			if got, ok := p.Lookup(ev.Shard, ev.Request); !ok || got != ev {
				t.Fatalf("Lookup(%d, %d) = %+v, %v; want %+v", ev.Shard, ev.Request, got, ok, ev)
			}
		}
	})
}

// upstream returns a test server echoing a fixed body, plus a counter
// of requests that actually reached it.
func upstream(t *testing.T, body string) (*httptest.Server, *int) {
	t.Helper()
	hits := new(int)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		*hits++
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv, hits
}

func post(t *testing.T, client *http.Client, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	return client.Do(req)
}

func TestTransportCountsOnlyPosts(t *testing.T) {
	plan := &Plan{Events: []Event{{Shard: 0, Request: 0, Kind: KindRefuse}}}
	srv, hits := upstream(t, "ok")
	tr := NewTransport(plan, 0, nil)
	client := &http.Client{Transport: tr}

	// GETs are never faulted and never consume schedule indices.
	for i := 0; i < 3; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		resp.Body.Close()
	}
	if n := tr.Metrics().Snapshot()["chaos.requests"]; n != 0 {
		t.Fatalf("GETs counted: %d", n)
	}
	// The first POST is request index 0 and must be refused.
	if _, err := post(t, client, srv.URL); err == nil {
		t.Fatalf("want refusal on first POST")
	}
	if *hits != 3 {
		t.Fatalf("refused POST reached upstream (hits=%d)", *hits)
	}
	// The second POST (index 1) is unscheduled and passes through.
	resp, err := post(t, client, srv.URL)
	if err != nil {
		t.Fatalf("second POST: %v", err)
	}
	resp.Body.Close()
	want := map[string]int64{
		"chaos.requests":          2,
		"chaos.forwarded":         4, // three GETs and the second POST
		"chaos.injected.refuse":   1,
		"chaos.injected.hang":     0,
		"chaos.injected.delay":    0,
		"chaos.injected.error":    0,
		"chaos.injected.truncate": 0,
	}
	if got := tr.Metrics().Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics = %v, want %v", got, want)
	}
}

func TestTransportError5xx(t *testing.T) {
	plan := &Plan{Events: []Event{{Shard: 0, Request: 0, Kind: KindError5xx}}}
	srv, hits := upstream(t, "ok")
	client := &http.Client{Transport: NewTransport(plan, 0, nil)}
	resp, err := post(t, client, srv.URL)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "fault injected") {
		t.Fatalf("unexpected body %q", body)
	}
	if *hits != 0 {
		t.Fatalf("5xx fault forwarded to upstream")
	}
}

func TestTransportTruncate(t *testing.T) {
	const full = "0123456789abcdef"
	plan := &Plan{Events: []Event{{Shard: 0, Request: 0, Kind: KindTruncate}}}
	srv, hits := upstream(t, full)
	client := &http.Client{Transport: NewTransport(plan, 0, nil)}
	resp, err := post(t, client, srv.URL)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want unexpected EOF, got %v (body %q)", err, got)
	}
	if string(got) != full[:len(full)/2] {
		t.Fatalf("want half body %q, got %q", full[:len(full)/2], got)
	}
	// The defining property of truncate: the upstream DID process it.
	if *hits != 1 {
		t.Fatalf("truncate must forward to upstream (hits=%d)", *hits)
	}
}

func TestTransportHangRespectsContext(t *testing.T) {
	plan := &Plan{Events: []Event{{Shard: 0, Request: 0, Kind: KindHang}}}
	srv, hits := upstream(t, "ok")
	client := &http.Client{Transport: NewTransport(plan, 0, nil)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	start := time.Now()
	_, err = client.Do(req)
	if err == nil {
		t.Fatalf("want deadline error from hang")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hang did not release on context: %v", elapsed)
	}
	if *hits != 0 {
		t.Fatalf("hang forwarded to upstream")
	}
}

func TestTransportDelayForwards(t *testing.T) {
	plan := &Plan{Events: []Event{{Shard: 0, Request: 0, Kind: KindDelay, DelayMS: 10}}}
	srv, hits := upstream(t, "ok")
	client := &http.Client{Transport: NewTransport(plan, 0, nil)}
	start := time.Now()
	resp, err := post(t, client, srv.URL)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if *hits != 1 {
		t.Fatalf("delay must forward (hits=%d)", *hits)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("delay too short: %v", elapsed)
	}
}
