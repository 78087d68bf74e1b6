package serve

// The transport-free heart of the serving stack. Core owns the
// prediction cache, the sharded worker pool and the predictor registry;
// it implements Backend, the interface every transport (the HTTP
// Handler, the cluster router, in-process callers) serves through. A
// cluster shard and a single node are the same object — Core — which is
// what makes sharded answers byte-identical to single-node answers by
// construction.

import (
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/power"
)

// Backend is the transport-free prediction surface: everything a
// client can ask of the serving stack, with no HTTP attached. Core
// implements it for a single node; cluster.Client implements it for a
// consistent-hash ring of nodes. Handler adapts any Backend to the
// five-endpoint HTTP API, which is why a router is indistinguishable
// from a single node on the wire.
type Backend interface {
	// Predict serves one prediction.
	Predict(ctx context.Context, req PredictRequest) (*PredictResponse, error)
	// PredictBatch serves an ordered list of predictions as one unit.
	PredictBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error)
	// Train refits the predictor for one (device, dtype) and purges the
	// cached predictions it supersedes.
	Train(ctx context.Context, req TrainRequest) (*TrainResponse, error)
	// Health reports liveness and the serving metrics.
	Health(ctx context.Context) (*HealthResponse, error)
	// Metrics returns a flat snapshot of the backend's counters and
	// gauges.
	Metrics() map[string]int64
	// Close releases the backend's resources; in-flight calls finish
	// first.
	Close()
}

// Core is the single-node prediction engine: cache, worker pool and
// predictor registry with no transport attached. It implements
// Backend; Handler wraps it in HTTP, cluster.Client fans out across
// many of them, and tests and examples call it directly.
type Core struct {
	cfg      Config
	metrics  *obs.MetricSet
	cache    *lruCache
	pool     *pool
	registry *registry
	// trainMu serializes Train: a sweep already fans out to
	// GOMAXPROCS workers, so concurrent retrains would only
	// oversubscribe the box and starve the predict pool.
	trainMu sync.Mutex

	hits        *obs.Counter
	misses      *obs.Counter
	simulations *obs.Counter
	requests    *obs.Counter
	failures    *obs.Counter
	batches     *obs.Counter
	coalesced   *obs.Counter
	exported    *obs.Counter
	imported    *obs.Counter
	queueDepth  *obs.Gauge
	inflight    *obs.Gauge

	// Per-endpoint latency distributions; predict is split by whether
	// the LRU answered (hit) or the pool simulated (compute) — the two
	// populations differ by orders of magnitude and averaging them
	// hides both.
	predictHit     *obs.Histogram
	predictCompute *obs.Histogram
	batchLat       *obs.Histogram
	trainLat       *obs.Histogram

	tracer *obs.Tracer
}

// NewCore builds and starts a single-node backend (its worker pool
// runs until Close).
func NewCore(cfg Config) *Core {
	cfg = cfg.withDefaults()
	m := obs.NewMetricSet()
	c := &Core{
		cfg:         cfg,
		metrics:     m,
		cache:       newLRUCache(cfg.CacheSize),
		hits:        m.Counter("serve.cache.hits"),
		misses:      m.Counter("serve.cache.misses"),
		simulations: m.Counter("serve.simulations"),
		requests:    m.Counter("serve.requests"),
		failures:    m.Counter("serve.failures"),
		batches:     m.Counter("serve.batch.requests"),
		coalesced:   m.Counter("serve.batch.coalesced"),
		exported:    m.Counter("serve.cache.exported"),
		imported:    m.Counter("serve.cache.imported"),
		queueDepth:  m.Gauge("serve.queue.depth"),
		inflight:    m.Gauge("serve.inflight"),

		predictHit:     m.Histogram("serve.predict.latency.hit"),
		predictCompute: m.Histogram("serve.predict.latency.compute"),
		batchLat:       m.Histogram("serve.batch.latency"),
		trainLat:       m.Histogram("serve.train.latency"),

		// Span identities come from the seeded house RNG (obs.IDGen),
		// never the wall clock, so traces are reproducible under test.
		tracer: obs.NewTracer("serve", obsTraceSeed, 0),
	}
	c.pool = newPool(cfg.Shards, cfg.QueueDepth, c.queueDepth)
	c.registry = newRegistry(cfg.Training, m.Counter("serve.trainings"))
	return c
}

// obsTraceSeed seeds every Core tracer's ID stream. A constant (not
// wall clock) keeps trace trees reproducible; the service label salts
// the stream so router and shard IDs do not collide by construction.
const obsTraceSeed = 0x0B5C0DE

// Close drains the worker pool. In-flight Predict calls finish first.
func (c *Core) Close() { c.pool.Close() }

// Metrics returns a snapshot of the serving counters and gauges.
func (c *Core) Metrics() map[string]int64 { return c.metrics.Snapshot() }

// Tracer exposes the core's span source, letting Handler run requests
// under server spans and tests inspect the recorded trace tree.
func (c *Core) Tracer() *obs.Tracer { return c.tracer }

// Histograms returns a snapshot of the core's latency distributions,
// kept separate from Metrics so the flat JSON map never changes shape.
func (c *Core) Histograms() map[string]obs.HistogramSnapshot {
	return c.metrics.HistogramSnapshots()
}

// PromMetrics returns the typed snapshot rendered by
// GET /metrics?format=prom.
func (c *Core) PromMetrics() obs.PromSnapshot { return c.metrics.PromSnapshot() }

// CacheHitRate returns hits/(hits+misses) over the core's lifetime.
// Only tests call it: TestCacheHitRateOnRepeatedWorkload.
func (c *Core) CacheHitRate() float64 { return obs.HitRate(c.hits, c.misses) }

// CacheLen returns the number of cached predictions.
func (c *Core) CacheLen() int { return c.cache.Len() }

// Health reports liveness, the served device/dtype vocabulary and the
// metrics snapshot.
func (c *Core) Health(ctx context.Context) (*HealthResponse, error) {
	dtypes := make([]string, len(matrix.ExtendedDTypes))
	for i, dt := range matrix.ExtendedDTypes {
		dtypes[i] = dt.String()
	}
	return &HealthResponse{
		Status:   "ok",
		Devices:  device.Names(),
		DTypes:   dtypes,
		CacheLen: c.CacheLen(),
		Metrics:  c.Metrics(),
	}, nil
}

// resolve validates a predict request against this core's size bound.
func (c *Core) resolve(req PredictRequest) (Resolved, error) {
	return ResolveRequest(req, c.cfg.MaxSize)
}

// Predict serves one prediction: from the cache when possible,
// otherwise through the worker pool and the full simulation chain.
// Identical requests always return identical responses (all randomness
// is derived from the request key), differing only in the Cached flag.
func (c *Core) Predict(ctx context.Context, req PredictRequest) (*PredictResponse, error) {
	c.requests.Inc()
	c.inflight.Inc()
	defer c.inflight.Dec()

	res, err := c.resolve(req)
	if err != nil {
		c.failures.Inc()
		return nil, err
	}
	start := time.Now()
	resp, err := c.predictKeyed(ctx, res)
	if err == nil {
		h := c.predictCompute
		if resp.Cached {
			h = c.predictHit
		}
		h.ObserveDuration(time.Since(start))
	}
	return resp, err
}

// predictKeyed is the post-validation half of Predict: the cache fast
// path, then predictMiss. PredictBatch takes the same two steps per
// distinct key, so a batch item and a single-shot request for the same
// key share cache entries, shard serialization and metrics.
func (c *Core) predictKeyed(ctx context.Context, r Resolved) (*PredictResponse, error) {
	// Fast path: answer straight from the LRU without a pool trip.
	if resp, ok := c.cached(r); ok {
		return &resp, nil
	}
	return c.predictMiss(ctx, r)
}

// cached answers from the LRU when it holds the key at the current
// predictor generation, counting the hit. A response from a
// retrained-away generation is treated as a miss and recomputed.
func (c *Core) cached(r Resolved) (PredictResponse, bool) {
	resp, ok := c.cache.Get(r.Key)
	if !ok || resp.gen != c.registry.currentGen(r.Device.Name, r.DType) {
		return PredictResponse{}, false
	}
	c.hits.Inc()
	resp.Cached = true
	return resp, true
}

// predictMiss is predictKeyed past a fast-path miss: the lazy
// predictor and the trip through the key's pool shard.
func (c *Core) predictMiss(ctx context.Context, r Resolved) (*PredictResponse, error) {
	// Resolve the predictor before entering the pool: the lazy
	// training sweep is seconds of work and must not occupy a shard
	// worker while unrelated keys queue behind it (the registry
	// already coalesces concurrent trainings of one combination).
	entry, err := c.registry.Get(ctx, r.Device, r.DType)
	if err != nil {
		c.failures.Inc()
		return nil, err
	}

	v, err := c.pool.Do(ctx, r.Key.shardHash(), func() (any, error) {
		// Re-check under the shard: an identical request queued ahead
		// of this one may have filled the entry already. That still
		// skipped the simulation, so it still counts as a hit.
		if resp, ok := c.cached(r); ok {
			return &resp, nil
		}
		c.misses.Inc()
		// The simulation is the one genuinely expensive stretch of a
		// request, so it gets its own span: a trace that crossed the
		// router shows exactly which shard's worker pool paid.
		_, span := c.tracer.StartSpan(ctx, "serve.compute")
		span.SetAttr("pattern", r.Key.Pattern)
		span.SetAttr("size", strconv.Itoa(r.Key.Size))
		resp, err := c.compute(r, entry)
		span.SetError(err)
		span.End()
		if err != nil {
			return nil, err
		}
		c.cache.Put(r.Key, *resp)
		return resp, nil
	})
	if err != nil {
		c.failures.Inc()
		return nil, err
	}
	return v.(*PredictResponse), nil
}

// compute runs the GEMM-simulation hot path for one key and assembles
// the response.
func (c *Core) compute(r Resolved, entry *regEntry) (*PredictResponse, error) {
	rep, res, err := Simulate(r.Device, r.DType, r.Pattern, r.Key.Size, c.cfg.SampleOutputs)
	if err != nil {
		return nil, err
	}
	c.simulations.Inc()
	features := power.FeaturesOf(rep, res)
	predicted := entry.pred.Predict(features)
	return &PredictResponse{
		Device:         r.Device.Name,
		DType:          r.DType.String(),
		Pattern:        r.Key.Pattern,
		Size:           r.Key.Size,
		PredictedW:     predicted,
		SimulatedW:     res.AvgPowerW,
		ResidualW:      predicted - res.AvgPowerW,
		TrainR2:        entry.r2,
		IterTimeS:      res.IterTimeS,
		EnergyPerIterJ: res.EnergyPerIterJ,
		BusyFrac:       res.BusyFrac,
		Throttled:      res.Throttled,
		Features:       features,
		gen:            entry.gen,
	}, nil
}

// Train fits a fresh predictor for the requested (device, dtype) and
// invalidates the cached predictions it supersedes. Train calls are
// serialized: each sweep already parallelizes across GOMAXPROCS.
func (c *Core) Train(ctx context.Context, req TrainRequest) (*TrainResponse, error) {
	c.requests.Inc()
	c.inflight.Inc()
	defer c.inflight.Dec()

	if req.Device == "" {
		req.Device = DefaultDevice
	}
	if req.DType == "" {
		req.DType = DefaultDType
	}
	dev, err := lookupDevice(req.Device)
	if err != nil {
		c.failures.Inc()
		return nil, err
	}
	dt, ok := matrix.ParseDType(req.DType)
	if !ok {
		c.failures.Inc()
		return nil, badRequestf("unknown dtype %q", req.DType)
	}
	cfg := c.cfg.Training
	if len(req.Sizes) > 0 {
		for _, sz := range req.Sizes {
			if sz < 8 || sz > c.cfg.MaxSize {
				c.failures.Inc()
				return nil, badRequestf("training size %d out of [8, %d]", sz, c.cfg.MaxSize)
			}
		}
		cfg.Sizes = req.Sizes
	}
	if len(req.Patterns) > 0 {
		// Bound and parse each spelling as /predict does, before any
		// sweep starts: a bad corpus is the client's fault.
		for _, p := range req.Patterns {
			if _, err := parsePattern(p); err != nil {
				c.failures.Inc()
				return nil, err
			}
		}
		cfg.Patterns = req.Patterns
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}

	c.trainMu.Lock()
	defer c.trainMu.Unlock()
	start := time.Now()
	defer func() { c.trainLat.ObserveDuration(time.Since(start)) }()
	entry, err := c.registry.Retrain(dev, dt, cfg)
	if err != nil {
		c.failures.Inc()
		return nil, err
	}
	purged := c.cache.Purge(func(k Key) bool {
		return k.Device == dev.Name && k.DType == dt
	})
	return &TrainResponse{
		Device:    dev.Name,
		DType:     dt.String(),
		WeightsPJ: entry.pred.Weights,
		R2:        entry.r2,
		Samples:   entry.samples,
		Purged:    purged,
	}, nil
}

// compile-time check that Core satisfies the transport interface.
var _ Backend = (*Core)(nil)
