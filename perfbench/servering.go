package main

// serve-ring: an in-process equivalent of powerrouter. Two closed-loop
// clients, each on one keep-alive connection, send seeded /predict and
// /predict/batch streams to a cluster.Client behind serve.Handler,
// which routes over loopback HTTP to three shards, each a serve.Core
// behind serve.Handler.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

var serveRingWorkload = workload{
	name:     "serve-ring",
	clients:  ringClients,
	round:    1,
	chunkOps: 2000,
	tailMax:  95,
	setup:    setupServeRing,
}

const (
	ringShards  = 3
	ringClients = 2
	// batchEvery puts one /predict/batch among every batchEvery ops.
	batchEvery = 8
	batchItems = 32
	// batchDistinct bounds the distinct keys of one batch, so its 32
	// items repeat keys.
	batchDistinct = 16
	// firstTouchGap spaces one client's first-touch keys through its op
	// stream: its j-th first-touch key lands at a seeded op within
	// [j*gap, (j+1)*gap). 32 keys span about 45 000 ops, a client's
	// 30-second share on two cores.
	firstTouchGap = 1400
)

var (
	ringDevices = []string{"A100-PCIe-40GB", "H100-SXM5-80GB"}
	ringSizes   = []int{64, 96, 128, 192}
	// ringDTypes lists each datatype's equivalent spellings.
	ringDTypes = [][]string{
		{"FP32", "fp32", " Fp32 "},
		{"FP16", "fp16"},
		{"FP16-T", "fp16t", "FP16T"},
		{"INT8", "int8"},
	}
)

// ringPatterns draws the run's eight patterns, two per input variation
// of the paper (value distribution, bit similarity, placement,
// sparsity), each with two or three equivalent DSL spellings.
func ringPatterns(r *rand.Rand) [][]string {
	pick := func(xs ...int) int { return xs[r.IntN(len(xs))] }
	mean, std := pick(0, 50, 200), pick(1, 25, 210)
	n := pick(2, 4, 8, 16)
	flip := pick(1, 5, 10, 25)
	msb := pick(1, 2, 4)
	rows := pick(25, 50, 75, 100)
	within := pick(25, 50, 75, 100)
	sparse := pick(10, 30, 50, 70, 90)
	lsb := pick(2, 4, 8)
	frac := func(pct int) string { return strconv.FormatFloat(float64(pct)/100, 'g', -1, 64) }
	return [][]string{
		{fmt.Sprintf("gaussian(mean=%d, std=%d)", mean, std), fmt.Sprintf("gaussian(%d,%d)", mean, std), fmt.Sprintf("GAUSSIAN( std=%d , mean=%d )", std, mean)},
		{fmt.Sprintf("set(n=%d, mean=0, std=210)", n), fmt.Sprintf("set(%d, 0, 210)", n), fmt.Sprintf("Set(n=%d)", n)},
		{fmt.Sprintf("gaussian(default) | flip(%d%%)", flip), fmt.Sprintf("gaussian(default)|flip(p=%s)", frac(flip))},
		{fmt.Sprintf("gaussian(default) | randmsb(%d)", msb), fmt.Sprintf("gaussian(default)|randmsb(n=%d)", msb)},
		{fmt.Sprintf("gaussian(default) | sort(rows, %d%%)", rows), fmt.Sprintf("gaussian(default) | sort(rows, frac=%s)", frac(rows)), fmt.Sprintf("Gaussian(Default) | SORT(Rows, %d%%)", rows)},
		{fmt.Sprintf("gaussian(default) | sort(withinrows, %d%%)", within), fmt.Sprintf("gaussian(default)|sort(withinrows,frac=%s)", frac(within))},
		{fmt.Sprintf("gaussian(default) | sparsify(%d%%)", sparse), fmt.Sprintf("gaussian(default) | sparsify(frac=%s)", frac(sparse)), fmt.Sprintf("gaussian(default)|sparsify(%s)", frac(sparse))},
		{fmt.Sprintf("gaussian(default) | zerolsb(%d)", lsb), fmt.Sprintf("gaussian(default) | zerolsb(n=%d)", lsb)},
	}
}

// ringKey is one canonical prediction with its request spellings,
// each pre-encoded as a PredictRequest JSON object.
type ringKey struct {
	spellings [][]byte
}

// ringClient is one closed-loop caller's state. Only its own goroutine
// touches it.
type ringClient struct {
	http   *http.Client
	rng    *rand.Rand
	pool   []int // keys this client may request as already cached
	touch  []int // this client's first-touch keys, in stream order
	at     []int // op index of each first-touch key
	next   int   // index into touch of the next first-touch key
	batch  int   // seq%batchEvery of batch ops
	body   bytes.Buffer
	resBuf bytes.Buffer
}

type ringSession struct {
	rec     *recorder
	seed    uint64
	keys    []ringKey
	clients []*ringClient
	// first holds each key's first body digest. Prewarmed entries are
	// written in setup; a first-touch key's entry is written only by
	// the client that owns it.
	first []string

	batchItemsSent atomic.Int64
	// firstTouches counts the first-touch keys sent so far.
	firstTouches atomic.Int64

	servers  []*http.Server
	serveErr []chan error
	cores    []*serve.Core
	router   *cluster.Client
	shardURL []string
	url      string
}

func setupServeRing(seed uint64, rec *recorder) (session, error) {
	s := &ringSession{rec: rec, seed: seed}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.prepare(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// start brings up the shards and the router.
func (s *ringSession) start() error {
	var shards []cluster.Shard
	for i := 0; i < ringShards; i++ {
		core := serve.NewCore(serve.Config{})
		s.cores = append(s.cores, core)
		var b serve.Backend = core
		if s.rec != nil {
			var err error
			if b, err = traceBackend(core, s.rec, "serve.core"); err != nil {
				return err
			}
		}
		url, err := s.listen(spanHandler(s.rec, "shard.http", serve.Handler(b)))
		if err != nil {
			return err
		}
		s.shardURL = append(s.shardURL, url)
		hb, err := s.shardBackend(url)
		if err != nil {
			return err
		}
		shards = append(shards, cluster.Shard{Name: url, Backend: hb})
	}
	router, err := cluster.New(cluster.Config{Shards: shards})
	if err != nil {
		return err
	}
	s.router = router
	mux := http.NewServeMux()
	mux.Handle("/admin/", cluster.AdminHandler(router, func(u string) (serve.Backend, error) { return s.shardBackend(u) }))
	mux.Handle("/", serve.Handler(router))
	s.url, err = s.listen(spanHandler(s.rec, "router.http", mux))
	return err
}

// shardBackend is the router's backend for one shard, as powerrouter
// builds it; traced runs record a span around each call.
func (s *ringSession) shardBackend(url string) (serve.Backend, error) {
	b := cluster.NewHTTPBackendConfig(url, nil, cluster.BackendConfig{})
	if s.rec == nil {
		return b, nil
	}
	return traceBackend(b, s.rec, "router.hop")
}

func spanHandler(rec *recorder, name string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return spanMiddleware(rec, name, h)
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *ringSession) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	s.servers = append(s.servers, srv)
	s.serveErr = append(s.serveErr, done)
	return "http://" + l.Addr().String(), nil
}

// prepare builds the seeded key set and request streams, trains every
// predictor on every shard, and prewarms three quarters of the keys.
func (s *ringSession) prepare() error {
	r := rand.New(rand.NewPCG(s.seed, 0x5e77e))
	pats := ringPatterns(r)
	for _, dev := range ringDevices {
		for _, dts := range ringDTypes {
			for _, ps := range pats {
				for _, size := range ringSizes {
					var k ringKey
					for i := 0; i < 3; i++ {
						req := serve.PredictRequest{Device: dev, DType: dts[i%len(dts)], Pattern: ps[i%len(ps)], Size: size}
						b, err := json.Marshal(req)
						if err != nil {
							return err
						}
						k.spellings = append(k.spellings, b)
					}
					s.keys = append(s.keys, k)
				}
			}
		}
	}
	s.first = make([]string, len(s.keys))

	order := r.Perm(len(s.keys))
	warm, cold := order[:len(order)*3/4], order[len(order)*3/4:]
	for c := 0; c < ringClients; c++ {
		rc := &ringClient{
			rng:   rand.New(rand.NewPCG(s.seed, uint64(c)+1)),
			pool:  append([]int(nil), warm...),
			batch: r.IntN(batchEvery),
		}
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		rc.http = &http.Client{Transport: tr}
		if s.rec != nil {
			rc.http.Transport = spanTransport{tr}
		}
		for j := c; j < len(cold); j += ringClients {
			// Drawn below the window's last op, so the shift off a batch
			// slot stays inside the window.
			pos := len(rc.touch)*firstTouchGap + r.IntN(firstTouchGap-1)
			if pos%batchEvery == rc.batch {
				pos++
			}
			rc.touch = append(rc.touch, cold[j])
			rc.at = append(rc.at, pos)
		}
		s.clients = append(s.clients, rc)
	}

	// Train every (device, dtype) predictor on every shard (a router
	// /train broadcasts), so no predictor is fitted in the timed phase.
	ctx := context.Background()
	for _, dev := range ringDevices {
		for _, dts := range ringDTypes {
			req, _ := json.Marshal(serve.TrainRequest{Device: dev, DType: dts[0]})
			if _, err := s.post(ctx, s.clients[0], "/train", req); err != nil {
				return fmt.Errorf("train %s %s: %w", dev, dts[0], err)
			}
		}
	}
	for i := 0; i < len(warm); i += 64 {
		chunk := warm[i:min(i+64, len(warm))]
		if err := s.checkBatch(ctx, s.clients[0], chunk, false); err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
	}
	return nil
}

// post sends one JSON POST and returns the body of a 200 reply.
func (s *ringSession) post(ctx context.Context, c *ringClient, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.resBuf.Reset()
	if _, err := io.Copy(&c.resBuf, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(c.resBuf.Bytes()))
	}
	return c.resBuf.Bytes(), nil
}

// timedPost is post under a client span, returning its latency.
func (s *ringSession) timedPost(c *ringClient, name, path string, body []byte) ([]byte, time.Duration, error) {
	sp := s.rec.begin(0)
	start := time.Now()
	out, err := s.post(withSpan(context.Background(), sp.id), c, path, body)
	lat := time.Since(start)
	sp.end(name)
	return out, lat, err
}

func (s *ringSession) op(client, seq int) (time.Duration, error) {
	c := s.clients[client]
	if c.next < len(c.at) && seq == c.at[c.next] {
		k := c.touch[c.next]
		c.next++
		s.firstTouches.Add(1)
		body, lat, err := s.timedPost(c, "client.predict", "/predict", s.keys[k].spellings[c.rng.IntN(3)])
		if err != nil {
			return lat, err
		}
		c.pool = append(c.pool, k)
		return lat, s.checkPrediction(k, body, false)
	}
	if seq%batchEvery == c.batch {
		return s.batchOp(c)
	}
	k := c.pool[c.rng.IntN(len(c.pool))]
	body, lat, err := s.timedPost(c, "client.predict", "/predict", s.keys[k].spellings[c.rng.IntN(3)])
	if err != nil {
		return lat, err
	}
	return lat, s.checkPrediction(k, body, true)
}

// missesSent counts first-touch keys: they sit at fixed op indexes, so
// how many fall in the timed phase depends on the op rate.
func (s *ringSession) missesSent() int64 { return s.firstTouches.Load() }

// writeBatch encodes a /predict/batch body for keys, each key in the
// spelling pick returns.
func (s *ringSession) writeBatch(buf *bytes.Buffer, keys []int, pick func() int) {
	buf.Reset()
	buf.WriteString(`{"requests":[`)
	for i, k := range keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(s.keys[k].spellings[pick()])
	}
	buf.WriteString(`]}`)
}

func firstSpelling() int { return 0 }

// batchOp sends batchItems items over at most batchDistinct keys of the
// client's pool, in random spellings.
func (s *ringSession) batchOp(c *ringClient) (time.Duration, error) {
	var distinct [batchDistinct]int
	for i := range distinct {
		distinct[i] = c.pool[c.rng.IntN(len(c.pool))]
	}
	items := make([]int, batchItems)
	for i := range items {
		items[i] = distinct[c.rng.IntN(batchDistinct)]
	}
	s.writeBatch(&c.body, items, func() int { return c.rng.IntN(3) })
	s.batchItemsSent.Add(batchItems)
	body, lat, err := s.timedPost(c, "client.batch", "/predict/batch", c.body.Bytes())
	if err != nil {
		return lat, err
	}
	return lat, s.checkBatchBody(items, body, true)
}

// checkBatch sends keys (first spelling each) as one batch and checks
// the reply; cached is the flag every item must carry.
func (s *ringSession) checkBatch(ctx context.Context, c *ringClient, keys []int, cached bool) error {
	var body bytes.Buffer
	s.writeBatch(&body, keys, firstSpelling)
	out, err := s.post(ctx, c, "/predict/batch", body.Bytes())
	if err != nil {
		return err
	}
	return s.checkBatchBody(keys, out, cached)
}

// checkPrediction checks one /predict body against the key's first
// body; cached is the flag it must carry.
func (s *ringSession) checkPrediction(k int, body []byte, cached bool) error {
	d, got, ok := digestPrediction(body)
	if !ok {
		return fmt.Errorf("key %d: reply has no cached field", k)
	}
	if got != cached {
		return fmt.Errorf("key %d: cached=%v, want %v", k, got, cached)
	}
	if s.first[k] == "" {
		s.first[k] = d
	} else if d != s.first[k] {
		return fmt.Errorf("key %d: body differs from its first reply", k)
	}
	return nil
}

// batchReply is the part of a BatchResponse the checks read.
type batchReply struct {
	Items []struct {
		Response json.RawMessage `json:"response"`
		Error    string          `json:"error"`
	} `json:"items"`
	Distinct  int `json:"distinct"`
	Coalesced int `json:"coalesced"`
}

// checkBatchBody checks a batch reply item by item and its distinct and
// coalesced counts against a local count.
func (s *ringSession) checkBatchBody(keys []int, body []byte, cached bool) error {
	var br batchReply
	if err := json.Unmarshal(body, &br); err != nil {
		return err
	}
	if len(br.Items) != len(keys) {
		return fmt.Errorf("batch: %d items for %d requests", len(br.Items), len(keys))
	}
	seen := map[int]bool{}
	var errs []error
	for i, k := range keys {
		if br.Items[i].Error != "" {
			errs = append(errs, fmt.Errorf("item %d: %s", i, br.Items[i].Error))
			continue
		}
		// Repeats of a key in one batch share its lookup and read
		// cached:true whatever the lookup found.
		if err := s.checkPrediction(k, br.Items[i].Response, cached || seen[k]); err != nil {
			errs = append(errs, fmt.Errorf("item %d: %w", i, err))
		}
		seen[k] = true
	}
	if br.Distinct != len(seen) || br.Coalesced != len(keys)-len(seen) {
		errs = append(errs, fmt.Errorf("batch: distinct %d coalesced %d, want %d and %d", br.Distinct, br.Coalesced, len(seen), len(keys)-len(seen)))
	}
	return errors.Join(errs...)
}

// counters sums the shards' serve.* counters from their /metrics and
// takes the cluster.* counters from the router's.
func (s *ringSession) counters() (map[string]float64, error) {
	out := map[string]float64{"bench.batch_items": float64(s.batchItemsSent.Load())}
	for _, u := range append(append([]string(nil), s.shardURL...), s.url) {
		m, err := getMetrics(s.clients[0].http, u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			if (u == s.url) == strings.HasPrefix(k, "cluster.") {
				out[k] += float64(v)
			}
		}
	}
	return out, nil
}

func getMetrics(hc *http.Client, base string) (map[string]int64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, resp.StatusCode)
	}
	var mr serve.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return nil, err
	}
	return mr.Metrics, nil
}

// finish requests every key once more in one batch: touched keys must
// be cached and unchanged, and the bodies of all keys in key order make
// the run's digest.
func (s *ringSession) finish() (string, int, error) {
	all := make([]int, len(s.keys))
	touched := make([]bool, len(s.keys))
	for k := range all {
		all[k] = k
	}
	for _, rc := range s.clients {
		for _, k := range rc.pool {
			touched[k] = true
		}
	}
	var body bytes.Buffer
	s.writeBatch(&body, all, firstSpelling)
	out, err := s.post(context.Background(), s.clients[0], "/predict/batch", body.Bytes())
	if err != nil {
		return "", 1, fmt.Errorf("closing batch: %w", err)
	}
	var br batchReply
	if err := json.Unmarshal(out, &br); err != nil {
		return "", 1, fmt.Errorf("closing batch: %w", err)
	}
	if len(br.Items) != len(s.keys) {
		return "", 1, fmt.Errorf("closing batch: %d items for %d keys", len(br.Items), len(s.keys))
	}
	var errs []error
	for k := range s.keys {
		if err := s.checkPrediction(k, br.Items[k].Response, touched[k]); err != nil {
			errs = append(errs, err)
		}
	}
	digest := digestStrings(s.first)
	if s.seed == defaultSeed && digest != committedDigests["serve-ring"] {
		errs = append(errs, fmt.Errorf("digest %s differs from the committed %s", digest, committedDigests["serve-ring"]))
	}
	if err := errors.Join(errs...); err != nil {
		return digest, 1, fmt.Errorf("closing batch: %w", err)
	}
	return digest, 1, nil
}

func (s *ringSession) layers(ix spanIndex, d map[string]float64, m metrics) {
	us := func(xs []float64) float64 { return median(xs) / 1e3 }
	m.set("serve.core_hit_us", us(ix.durations("serve.core.predict.hit")), "us")
	m.set("serve.core_batch_us", us(ix.durations("serve.core.batch")), "us")
	m.set("serve.core_miss_ms", median(ix.durations("serve.core.predict.miss"))/1e6, "ms")
	m.set("serve.shard_http_us", us(ix.selfTimes("shard.http", "serve.core.")), "us")
	m.set("cluster.router_self_us", us(ix.selfTimes("client.", "router.hop.")), "us")
	if n := d["serve.cache.hits"] + d["serve.cache.misses"]; n > 0 {
		m.set("serve.hit_ratio", d["serve.cache.hits"]/n, "frac")
	}
	if n := d["bench.batch_items"]; n > 0 {
		m.set("serve.coalesced_frac", d["serve.batch.coalesced"]/n, "frac")
	}
	m.set("serve.simulations", d["serve.simulations"], "count")
	if n := d["cluster.batch.requests"]; n > 0 {
		m.set("cluster.fanout_width", d["cluster.batch.subbatches"]/n, "count")
	}
	m.set("cluster.retries", d["cluster.retry.attempts"]+d["cluster.reroutes"]+d["cluster.shard.errors"], "count")
}

func (s *ringSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range s.clients {
		c.http.CloseIdleConnections()
	}
	// The router first, then the shards it calls.
	for i := len(s.servers) - 1; i >= 0; i-- {
		_ = s.servers[i].Shutdown(ctx)
		<-s.serveErr[i]
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, c := range s.cores {
		c.Close()
	}
}
