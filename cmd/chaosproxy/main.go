// Command chaosproxy injects a fault plan in front of a real
// powerserve (or powerrouter) process: the real-binary twin of
// internal/faultinject.Transport, consuming the same JSON plan format,
// so a chaos schedule validated in-process replays identically against
// live processes in CI.
//
// Like Transport, only POST requests count toward (and are eligible
// for) the schedule; GET traffic — health, readiness and metrics
// polling — forwards unfaulted and uncounted, so readiness probes
// cannot shift fault indices between runs.
//
// Usage:
//
//	powerserve -addr :8101 &
//	chaosproxy -addr :8201 -upstream http://localhost:8101 -plan plan.json -shard 0
//	powerrouter -addr :8090 -shard http://localhost:8201 -shard http://localhost:8102
//
// Fault semantics per kind: refuse aborts the connection without a
// response; hang holds the request until the client gives up; delay
// forwards after the scheduled pause; error answers a plain-text 503
// without forwarding; truncate forwards, then writes only half the
// upstream body against a full-length Content-Length, so the client
// sees the connection die mid-transfer.
//
// -obs-addr starts a second listener with the proxy's own counters
// (chaos.requests, chaos.forwarded, chaos.injected.<kind>) as
// GET /metrics in the standard JSON shape or ?format=prom, plus a
// /healthz. It must be a separate port: GET on the proxy port forwards
// to the upstream, and the chaos CI job needs to ask the proxy itself
// how many faults it actually injected.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", ":8201", "listen address")
		upstream = flag.String("upstream", "", "base URL of the shard this proxy fronts (required)")
		planPath = flag.String("plan", "", "path to a faultinject JSON plan (required)")
		shard    = flag.Int("shard", 0, "this proxy's shard index within the plan")
		obsAddr  = flag.String("obs-addr", "", "serve the proxy's own /metrics and /healthz on this address (empty = disabled)")
	)
	flag.Parse()
	if *upstream == "" || *planPath == "" {
		fmt.Fprintln(os.Stderr, "chaosproxy: -upstream and -plan are required")
		os.Exit(2)
	}

	f, err := os.Open(*planPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosproxy: %v\n", err)
		os.Exit(1)
	}
	plan, err := faultinject.ReadPlan(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosproxy: %v\n", err)
		os.Exit(1)
	}

	p := newProxy(*upstream, plan, *shard)

	if *obsAddr != "" {
		go func() {
			log.Printf("chaosproxy: metrics on %s", *obsAddr)
			if err := http.ListenAndServe(*obsAddr, p.obsHandler()); err != nil {
				log.Printf("chaosproxy: metrics: %v", err)
			}
		}()
	}

	log.Printf("chaosproxy: %s -> %s, plan %s (shard %d, %d events)",
		*addr, *upstream, *planPath, *shard, len(plan.Events))
	hs := &http.Server{
		Addr:              *addr,
		Handler:           p,
		ReadHeaderTimeout: 5 * time.Second,
	}
	if err := hs.ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "chaosproxy: %v\n", err)
		os.Exit(1)
	}
}

// proxy forwards requests to the upstream, injecting the plan's fault
// for each counted POST.
type proxy struct {
	upstream string
	plan     *faultinject.Plan
	shard    int
	client   *http.Client

	// metrics counts what the proxy did, so the chaos CI job can assert
	// the plan's faults were actually injected rather than inferring it
	// from client-side symptoms: chaos.requests (counted POSTs),
	// chaos.forwarded (requests the upstream saw), and one
	// chaos.injected.<kind> counter per fault kind.
	metrics   *obs.MetricSet
	requests  *obs.Counter
	forwarded *obs.Counter
	injected  map[faultinject.Kind]*obs.Counter

	mu    sync.Mutex
	count int
}

func newProxy(upstream string, plan *faultinject.Plan, shard int) *proxy {
	p := &proxy{
		upstream: upstream,
		plan:     plan,
		shard:    shard,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
		}},
		metrics:  obs.NewMetricSet(),
		injected: map[faultinject.Kind]*obs.Counter{},
	}
	p.requests = p.metrics.Counter("chaos.requests")
	p.forwarded = p.metrics.Counter("chaos.forwarded")
	// Pre-register every kind so a fault-free run still exposes zeroed
	// counters the CI assertions can read.
	for _, k := range faultinject.Kinds() {
		p.injected[k] = p.metrics.Counter("chaos.injected." + string(k))
	}
	return p
}

// obsHandler serves the proxy's own observability surface: /healthz
// and GET /metrics in the standard JSON shape (or ?format=prom).
func (p *proxy) obsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status": "ok"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		switch format := r.URL.Query().Get("format"); format {
		case "", "json":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]map[string]int64{"metrics": p.metrics.Snapshot()})
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			obs.WriteProm(w, p.metrics.PromSnapshot())
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (use json or prom)", format), http.StatusBadRequest)
		}
	})
	return mux
}

func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		p.forward(w, r, 1)
		return
	}
	p.requests.Inc()
	p.mu.Lock()
	idx := p.count
	p.count++
	p.mu.Unlock()

	ev, ok := p.plan.Lookup(p.shard, idx)
	if !ok {
		p.forward(w, r, 1)
		return
	}
	log.Printf("chaosproxy: request %d: injecting %s", idx, ev.Kind)
	p.injected[ev.Kind].Inc()
	switch ev.Kind {
	case faultinject.KindRefuse:
		// Abort the connection without writing a response: the client
		// sees it die, as a refused/reset connection would.
		panic(http.ErrAbortHandler)
	case faultinject.KindHang:
		<-r.Context().Done()
	case faultinject.KindDelay:
		ms := ev.DelayMS
		if ms <= 0 {
			ms = faultinject.DefaultDelayMS
		}
		select {
		case <-time.After(time.Duration(ms) * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		p.forward(w, r, 1)
	case faultinject.KindError5xx:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "fault injected: shard %d request %d unavailable\n", p.shard, idx)
	case faultinject.KindTruncate:
		// Forward for real — the upstream processes the request — then
		// cut the response off halfway: full Content-Length, half the
		// bytes, connection closed. The client sees unexpected EOF.
		p.forward(w, r, 2)
	default:
		p.forward(w, r, 1)
	}
}

// forward proxies one request to the upstream, writing 1/div of the
// response body (div 2 = the truncate fault).
func (p *proxy) forward(w http.ResponseWriter, r *http.Request, div int) {
	p.forwarded.Inc()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.upstream+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		// The upstream itself is unreachable: surface it as an aborted
		// connection, the same signal the client gets from a dead shard.
		log.Printf("chaosproxy: upstream: %v", err)
		panic(http.ErrAbortHandler)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(resp.StatusCode)
	if _, err := w.Write(body[:len(body)/div]); err != nil {
		return
	}
	if div > 1 {
		// Close the connection mid-transfer rather than letting the
		// server pad or chunk-terminate the short body.
		panic(http.ErrAbortHandler)
	}
}
