// Command powerserve exposes the §V input-dependent power model as an
// HTTP/JSON service (internal/serve): POST /predict returns the fitted
// predictor's estimate next to the full simulator's ground truth for a
// (device, dtype, pattern DSL, size) configuration, POST /train refits
// a predictor from a custom sweep, and GET /healthz reports liveness
// plus the serving metrics (cache hit counters, queue depth).
//
// Usage:
//
//	powerserve -addr :8090 -cache 4096 -maxsize 512
//	curl -s localhost:8090/predict -d '{"pattern": "gaussian(default) | sparsify(50%)", "dtype": "FP16", "size": 256}'
//	curl -s localhost:8090/healthz
//
// examples/loadgen drives the server with a mixed pattern workload and
// reports throughput and latency percentiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "listen address")
		cache     = flag.Int("cache", 4096, "prediction LRU capacity (entries)")
		shards    = flag.Int("shards", 0, "worker-pool shards (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 256, "per-shard queue capacity")
		maxSize   = flag.Int("maxsize", 512, "largest accepted GEMM dimension")
		samples   = flag.Int("sampleoutputs", 128, "sampled activity terms per simulation")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go servePprof("powerserve", *pprofAddr)
	}

	srv := serve.NewCore(serve.Config{
		CacheSize:     *cache,
		Shards:        *shards,
		QueueDepth:    *queue,
		MaxSize:       *maxSize,
		SampleOutputs: *samples,
	})
	defer srv.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           serve.Handler(srv),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute, // /train sweeps take a while
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	log.Printf("powerserve: listening on %s (%d shards, cache %d, max size %d)",
		*addr, effectiveShards(*shards), *cache, *maxSize)

	select {
	case sig := <-stop:
		log.Printf("powerserve: %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("powerserve: shutdown: %v", err)
		}
	case err := <-errCh:
		if err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "powerserve: %v\n", err)
			os.Exit(1)
		}
	}
}

func effectiveShards(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// servePprof runs the opt-in profiling listener on its own address,
// kept off the serving port so profiles never contend with (or expose
// themselves to) request traffic.
func servePprof(name, addr string) {
	log.Printf("%s: pprof on %s", name, addr)
	if err := http.ListenAndServe(addr, obs.PprofHandler()); err != nil {
		log.Printf("%s: pprof: %v", name, err)
	}
}
