// Command chaosproxy injects a fault plan in front of a real
// powerserve (or powerrouter) process. It is an httputil.ReverseProxy
// whose transport is internal/faultinject.Transport, so the same JSON
// plan injects the same faults against live processes in CI as it
// does in the in-process chaos tests.
//
// Only POST requests count toward (and are eligible for) the schedule;
// GET traffic — health, readiness and metrics polling — forwards
// unfaulted and uncounted, so readiness probes cannot shift fault
// indices between runs. Unlike an in-process Transport, the proxy opts
// no GET path into the schedule (faultinject's FaultGET).
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
// upstream body and drops the connection, so the client sees it die
// mid-transfer. An unreachable upstream also drops the connection.
//
// -obs-addr starts a second listener with the transport's counters
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
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
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
	target, err := url.Parse(*upstream)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosproxy: -upstream: %v\n", err)
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

	tr := faultinject.NewTransport(plan, *shard, &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	})

	if *obsAddr != "" {
		go func() {
			log.Printf("chaosproxy: metrics on %s", *obsAddr)
			if err := http.ListenAndServe(*obsAddr, obsHandler(tr.Metrics())); err != nil {
				log.Printf("chaosproxy: metrics: %v", err)
			}
		}()
	}

	log.Printf("chaosproxy: %s -> %s, plan %s (shard %d, %d events)",
		*addr, *upstream, *planPath, *shard, len(plan.Events))
	hs := &http.Server{
		Addr:              *addr,
		Handler:           reverseProxy(target, tr),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if err := hs.ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "chaosproxy: %v\n", err)
		os.Exit(1)
	}
}

// reverseProxy forwards every request to target through tr. A request
// tr fails (a refuse, a hang or delay the client gave up on, an
// unreachable upstream) aborts the client's connection without a
// response, as a dead shard would, rather than answering 502.
func reverseProxy(target *url.URL, tr *faultinject.Transport) *httputil.ReverseProxy {
	return &httputil.ReverseProxy{
		Rewrite:   func(r *httputil.ProxyRequest) { r.SetURL(target) },
		Transport: tr,
		// Flush every write: when a truncated body aborts the handler,
		// net/http discards what it still buffers, so without this a
		// short answer cut in half would reach the client as no answer.
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			log.Printf("chaosproxy: %s %s: %v", r.Method, r.URL.Path, err)
			panic(http.ErrAbortHandler)
		},
	}
}

// obsHandler serves the proxy's own observability surface: /healthz
// and GET /metrics in the standard JSON shape (or ?format=prom).
func obsHandler(metrics *obs.MetricSet) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status": "ok"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		switch format := r.URL.Query().Get("format"); format {
		case "", "json":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]map[string]int64{"metrics": metrics.Snapshot()})
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			obs.WriteProm(w, metrics.PromSnapshot())
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (use json or prom)", format), http.StatusBadRequest)
		}
	})
	return mux
}
