package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

const upstreamBody = `{"answer": "from the upstream shard"}`

// upstream starts a server that answers every request with
// upstreamBody and counts the requests that reach it.
func upstream(t *testing.T) (*url.URL, *atomic.Int64) {
	t.Helper()
	hits := new(atomic.Int64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, upstreamBody)
	}))
	t.Cleanup(srv.Close)
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u, hits
}

// serve runs h on a test server whose request contexts end with the
// test, so a handler that never notices its client leaving cannot
// block the server's Close.
func serve(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	srv := httptest.NewUnstartedServer(h)
	srv.Config.BaseContext = func(net.Listener) context.Context { return ctx }
	srv.Start()
	t.Cleanup(srv.Close)
	t.Cleanup(cancel) // runs before Close
	return srv
}

// outcome is what a client can see of one request.
type outcome struct {
	status      int
	contentType string
	body        string
	err         string
}

// do sends one request with a short deadline and reads the answer.
func do(t *testing.T, client *http.Client, method, url string) outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var body io.Reader
	if method == http.MethodPost {
		body = strings.NewReader(`{"size": 64}`)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return outcome{err: "deadline exceeded"}
	case err != nil:
		return outcome{err: "connection dropped"}
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	o := outcome{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: string(answer)}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// TestProxyReplaysPlanLikeTransport replays CI's chaos plan index by
// index through the proxy and through a bare faultinject.Transport:
// each POST must look the same to the client, reach the upstream the
// same number of times and move the same chaos.* counters, and a GET
// between POSTs must be forwarded without being counted.
func TestProxyReplaysPlanLikeTransport(t *testing.T) {
	f, err := os.Open("../../.github/testdata/chaos-plan.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.ReadPlan(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	proxyUp, proxyHits := upstream(t)
	proxyTr := faultinject.NewTransport(plan, 0, nil)
	proxy := serve(t, reverseProxy(proxyUp, proxyTr))
	proxyClient := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(proxyClient.CloseIdleConnections)

	bareUp, bareHits := upstream(t)
	bareTr := faultinject.NewTransport(plan, 0, nil)
	bareClient := &http.Client{Transport: bareTr}

	// step sends one request both ways and requires the same outcome,
	// the same upstream hits and the same counters.
	step := func(name, method string) outcome {
		got := do(t, proxyClient, method, proxy.URL+"/predict")
		want := do(t, bareClient, method, bareUp.String()+"/predict")
		if got != want {
			t.Errorf("%s: proxy %+v, transport %+v", name, got, want)
		}
		if p, b := proxyHits.Load(), bareHits.Load(); p != b {
			t.Errorf("%s: upstream hits: proxy %d, transport %d", name, p, b)
		}
		if p, b := proxyTr.Metrics().Snapshot(), bareTr.Metrics().Snapshot(); !reflect.DeepEqual(p, b) {
			t.Errorf("%s: metrics: proxy %v, transport %v", name, p, b)
		}
		return got
	}
	last := 0
	for _, ev := range plan.Events {
		last = max(last, ev.Request)
	}
	ok := outcome{status: http.StatusOK, contentType: "application/json", body: upstreamBody}
	for i := 0; i <= last+1; i++ {
		step(fmt.Sprintf("POST %d", i), http.MethodPost)
		before := proxyTr.Metrics().Snapshot()
		if got := step(fmt.Sprintf("GET after POST %d", i), http.MethodGet); got != ok {
			t.Errorf("GET after POST %d: %+v, want %+v", i, got, ok)
		}
		after := proxyTr.Metrics().Snapshot()
		if after["chaos.requests"] != before["chaos.requests"] || after["chaos.forwarded"] != before["chaos.forwarded"]+1 {
			t.Errorf("GET after POST %d: requests %d -> %d, forwarded %d -> %d; want it forwarded and not counted",
				i, before["chaos.requests"], after["chaos.requests"], before["chaos.forwarded"], after["chaos.forwarded"])
		}
	}

	// The plan must actually have fired, kind by kind.
	metrics := proxyTr.Metrics().Snapshot()
	planned := map[faultinject.Kind]int64{}
	for _, ev := range plan.Events {
		planned[ev.Kind]++
	}
	for _, k := range faultinject.Kinds() {
		if got := metrics["chaos.injected."+string(k)]; got != planned[k] {
			t.Errorf("chaos.injected.%s = %d, plan schedules %d", k, got, planned[k])
		}
	}
}

// TestHangReturnsAfterClientDeadline: a hang holds the request until
// the client gives up, and then the proxy's handler must return
// rather than hold a goroutine and a connection for good.
func TestHangReturnsAfterClientDeadline(t *testing.T) {
	plan := &faultinject.Plan{Events: []faultinject.Event{{Shard: 0, Request: 0, Kind: faultinject.KindHang}}}
	up, hits := upstream(t)
	h := reverseProxy(up, faultinject.NewTransport(plan, 0, nil))
	returned := make(chan struct{})
	proxy := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned)
		h.ServeHTTP(w, r)
	}))

	if got := do(t, http.DefaultClient, http.MethodPost, proxy.URL+"/predict"); got.err != "deadline exceeded" {
		t.Fatalf("hang answered %+v", got)
	}
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("proxy handler still blocked 2 s after the client's deadline")
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("hang forwarded to the upstream (%d hits)", n)
	}
}
