package cluster

// Client: the fan-out/fan-in front of a shard ring. It implements
// serve.Backend, so serve.Handler can mount it (cmd/powerrouter) and
// internal/fleet's oracles can point at it without knowing they talk
// to a cluster. The topology is dynamic: every request routes against
// an immutable snapshot (ring epoch + slot→shard table) swapped
// atomically by the resize operations in resize.go, so a live
// AddShard/DrainShard never races a request half-way through routing.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// clusterTraceSeed seeds the router tracer's ID stream — a constant,
// like serve's, so trace trees are reproducible under test; the
// "cluster" service label decorrelates it from shard ID streams.
const clusterTraceSeed = 0xC105EED

// DefaultCooldown is how long a shard stays marked down before the
// client half-opens it with a live request again.
const DefaultCooldown = 5 * time.Second

// Shard names one ring member and the backend that reaches it.
type Shard struct {
	// Name identifies the shard in health reports and errors (the base
	// URL for HTTP shards).
	Name string
	// Backend serves the shard's keys: an HTTPBackend for a remote
	// powerserve, or a *serve.Core for an in-process ring.
	Backend serve.Backend
}

// Config parameterizes a Client.
type Config struct {
	// Shards lists the initial ring members in placement order. Order
	// matters: the ring hashes member slots and the initial members take
	// slots 0..n-1, so two routers must list the same shards in the same
	// order to agree on placement. Later AddShard/DrainShard calls must
	// likewise be mirrored across router replicas.
	Shards []Shard
	// VirtualNodes is the per-shard ring point count
	// (0 = DefaultVirtualNodes).
	VirtualNodes int
	// Seed is the ring placement seed (0 = DefaultSeed).
	Seed uint64
	// MaxSize is the validation bound applied before routing; it must
	// match the shards' own -maxsize so a request the router forwards
	// is never rejected downstream (0 = the serve default, 512).
	MaxSize int
	// Cooldown is how long a down shard is skipped before the client
	// retries it (0 = DefaultCooldown, negative = never retry).
	Cooldown time.Duration
	// AttemptTimeout bounds each upstream attempt; its expiry is an
	// outage (TransportError.Timeout), not the caller's cancellation
	// (0 = DefaultAttemptTimeout, negative = none). Train is exempt:
	// retrains legitimately run far longer than any sane per-attempt
	// budget, and a half-applied broadcast is worse than a slow one.
	AttemptTimeout time.Duration
	// MaxRetries is the same-shard retry allowance per request after
	// the initial attempt, spent only on transport failures whose
	// response never arrived (0 = DefaultMaxRetries, negative = none).
	MaxRetries int
	// RetryBase and RetryCap bound the decorrelated-jitter backoff
	// between same-shard retries (0 = DefaultRetryBase/DefaultRetryCap).
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetryBudget caps extra upstream attempts — same-shard retries and
	// failover hops beyond each request's first attempt — across the
	// whole client, token-bucket style, so a dying ring cannot amplify
	// offered load into a retry storm (0 = DefaultRetryBudget,
	// negative = unlimited).
	RetryBudget int
	// RetryRefillPerSec restores budget tokens over time
	// (0 = DefaultRetryRefillPerSec, negative = no refill).
	RetryRefillPerSec float64
	// Fallback, when set, answers requests whose every replica is
	// unreachable by computing locally (cmd/powerrouter's -fallback
	// local wires a serve.Core here). Fallback responses carry the
	// Degraded marker, and a client with a fallback reports "degraded"
	// rather than "down" when the whole ring is out. Budget exhaustion
	// does NOT fall back: overload protection must not amplify load.
	Fallback serve.Backend
}

// Client routes requests across the shard ring. All methods are safe
// for concurrent use.
type Client struct {
	cfg Config

	// topoMu guards the topology pointer only; the topology itself is
	// immutable once installed. Request paths snapshot it once and
	// route the whole request against that epoch.
	topoMu sync.RWMutex
	topo   *topology

	// resizeMu serializes AddShard/DrainShard/RemoveShard so two
	// topology changes cannot interleave their handoffs.
	resizeMu sync.Mutex

	journal    *keyJournal
	retryDelay *backoff
	budget     *tokenBucket // nil = unlimited

	metrics         *obs.MetricSet
	requests        *obs.Counter
	batches         *obs.Counter
	items           *obs.Counter
	subbatches      *obs.Counter
	reroutes        *obs.Counter
	shardErrors     *obs.Counter
	failures        *obs.Counter
	retryAttempts   *obs.Counter
	retryRecovered  *obs.Counter
	budgetSpent     *obs.Counter
	budgetExhausted *obs.Counter
	fallbackServed  *obs.Counter
	resizeEpochs    *obs.Counter
	rangesMoved     *obs.Counter
	keysMoved       *obs.Counter
	entriesMigrated *obs.Counter
	replayed        *obs.Counter
	replayFailures  *obs.Counter
	exportFailures  *obs.Counter
	coldMisses      *obs.Counter
	downGauge       *obs.Gauge

	// Per-hop distributions: how long one upstream attempt takes, how
	// long the client sleeps between same-shard retries, and how wide a
	// batch round fans out across shards.
	attemptLat  *obs.Histogram
	retrySleep  *obs.Histogram
	fanoutWidth *obs.Histogram

	tracer *obs.Tracer
}

// topology is one immutable epoch of the ring: placement plus the
// slot→shard table. Neither the ring nor the map is ever mutated after
// install; resizes build a fresh topology and swap the pointer.
type topology struct {
	ring   *Ring
	shards map[int]*shardState
}

// state returns the shard serving slot.
func (t *topology) state(slot int) *shardState { return t.shards[slot] }

// slots returns every member slot in ring (member) order.
func (t *topology) slots() []int {
	members := t.ring.Members()
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = m.Slot
	}
	return out
}

// shardState tracks one ring member's reachability.
type shardState struct {
	name    string
	backend serve.Backend

	mu        sync.Mutex
	down      bool
	downSince time.Time
}

// New builds a client over the configured shards.
func New(cfg Config) (*Client, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = DefaultAttemptTimeout
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = DefaultRetryCap
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.RetryRefillPerSec == 0 {
		cfg.RetryRefillPerSec = DefaultRetryRefillPerSec
	}
	m := obs.NewMetricSet()
	c := &Client{
		cfg:             cfg,
		journal:         newKeyJournal(),
		retryDelay:      newBackoff(cfg.RetryBase, cfg.RetryCap, retrySeed),
		metrics:         m,
		requests:        m.Counter("cluster.requests"),
		batches:         m.Counter("cluster.batch.requests"),
		items:           m.Counter("cluster.batch.items"),
		subbatches:      m.Counter("cluster.batch.subbatches"),
		reroutes:        m.Counter("cluster.reroutes"),
		shardErrors:     m.Counter("cluster.shard.errors"),
		failures:        m.Counter("cluster.failures"),
		retryAttempts:   m.Counter("cluster.retry.attempts"),
		retryRecovered:  m.Counter("cluster.retry.recovered"),
		budgetSpent:     m.Counter("cluster.budget.spent"),
		budgetExhausted: m.Counter("cluster.budget.exhausted"),
		fallbackServed:  m.Counter("cluster.fallback.served"),
		resizeEpochs:    m.Counter("cluster.resize.epochs"),
		rangesMoved:     m.Counter("cluster.resize.ranges_moved"),
		keysMoved:       m.Counter("cluster.resize.keys_moved"),
		entriesMigrated: m.Counter("cluster.resize.entries_migrated"),
		replayed:        m.Counter("cluster.resize.replayed"),
		replayFailures:  m.Counter("cluster.resize.replay_failures"),
		exportFailures:  m.Counter("cluster.resize.export_failures"),
		coldMisses:      m.Counter("cluster.resize.cold_misses"),
		downGauge:       m.Gauge("cluster.shards.down"),

		attemptLat:  m.Histogram("cluster.attempt.latency"),
		retrySleep:  m.Histogram("cluster.retry.delay"),
		fanoutWidth: m.ValueHistogram("cluster.batch.fanout"),

		tracer: obs.NewTracer("cluster", clusterTraceSeed, 0),
	}
	if cfg.RetryBudget > 0 {
		c.budget = newTokenBucket(cfg.RetryBudget, cfg.RetryRefillPerSec)
	}
	shards := make(map[int]*shardState, len(cfg.Shards))
	for i, s := range cfg.Shards {
		if s.Backend == nil {
			return nil, fmt.Errorf("cluster: shard %d (%q) has no backend", i, s.Name)
		}
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("shard%d", i)
		}
		shards[i] = &shardState{name: name, backend: s.Backend}
	}
	c.topo = &topology{
		ring:   NewRing(len(cfg.Shards), cfg.VirtualNodes, cfg.Seed),
		shards: shards,
	}
	return c, nil
}

// topology snapshots the current epoch; the snapshot stays valid (and
// immutable) for the whole request even if a resize lands mid-flight.
func (c *Client) topology() *topology {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return c.topo
}

// install swaps in a new topology epoch.
func (c *Client) install(t *topology) {
	c.topoMu.Lock()
	c.topo = t
	c.topoMu.Unlock()
}

// Ring exposes the client's current placement. Only tests call it:
// TestBatchReroutesAroundDownShard and
// TestBatchTraceParentOnRouterChildrenOnOwningShards.
func (c *Client) Ring() *Ring { return c.topology().ring }

// available reports whether the shard should receive traffic: up, or
// down long enough that a half-open probe is due. The probe is
// single-admission: the caller that observes the elapsed cooldown
// advances the deadline, so a concurrent wave against a still-dead
// shard sends one probe per cooldown period, not one per request.
func (s *shardState) available(cooldown time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down {
		return true
	}
	if cooldown >= 0 && time.Since(s.downSince) >= cooldown {
		s.downSince = time.Now()
		return true
	}
	return false
}

// up reports the shard's state without the half-open side effect of
// available — for read paths that must not consume a probe admission.
func (s *shardState) up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.down
}

// markDown records a transport failure; returns true on the
// transition from up to down.
func (s *shardState) markDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	wasUp := !s.down
	s.down = true
	s.downSince = time.Now()
	return wasUp
}

// markUp records a successful round trip; returns true on the
// transition from down to up.
func (s *shardState) markUp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	wasDown := s.down
	s.down = false
	return wasDown
}

// noteDown marks the shard down after a transport error, maintaining
// the shared gauge and counters.
func (c *Client) noteDown(s *shardState) {
	c.shardErrors.Inc()
	if s.markDown() {
		c.downGauge.Inc()
	}
}

// noteUp clears a shard's down state after a successful call.
func (c *Client) noteUp(s *shardState) {
	if s.markUp() {
		c.downGauge.Dec()
	}
}

// noteServed records a served key in the replay journal and maintains
// the post-resize cold-miss counter: a journaled key answered uncached
// after at least one resize is a cache entry the handoff failed to
// carry — the measurable hit-rate dip. Degraded (fallback) answers are
// journaled but never counted: the fallback's cache is not the ring's.
func (c *Client) noteServed(key serve.Key, cached, degraded bool) {
	seen := c.journal.note(key)
	if seen && !cached && !degraded && c.resizeEpochs.Load() > 0 {
		c.coldMisses.Inc()
	}
}

// Predict routes one prediction to the key's owner, walking the ring's
// preference sequence past down shards. Each shard gets the retry
// policy's allowance of same-shard attempts (retryCall); only
// transport failures move on — an in-band rejection is deterministic
// and would be identical on every shard. A shard that needed a retry
// but ultimately answered is NOT marked down: the answer proves it
// alive. When no replica is reachable and a fallback is configured,
// the answer is computed locally and marked Degraded.
func (c *Client) Predict(ctx context.Context, req serve.PredictRequest) (*serve.PredictResponse, error) {
	c.requests.Inc()
	res, err := serve.ResolveRequest(req, c.cfg.MaxSize)
	if err != nil {
		c.failures.Inc()
		return nil, err
	}
	topo := c.topology()
	seq := topo.ring.Sequence(res.Key.RouteString())
	first := true
	var lastTransport error
	for hop, slot := range seq {
		s := topo.state(slot)
		if s == nil || !s.available(c.cfg.Cooldown) {
			continue
		}
		if hop > 0 {
			c.reroutes.Inc()
		}
		// One span per hop, carried on the context so HTTPBackend's
		// header injection makes the shard's server span its child.
		hopCtx, hopSpan := c.tracer.StartSpan(ctx, "cluster.attempt")
		hopSpan.SetAttr("shard", s.name)
		hopSpan.SetAttr("hop", strconv.Itoa(hop))
		resp, err := retryCall(c, hopCtx, s, &first, func(actx context.Context) (*serve.PredictResponse, error) {
			return s.backend.Predict(actx, req)
		})
		hopSpan.SetError(err)
		hopSpan.End()
		if err == nil {
			c.noteUp(s)
			c.noteServed(res.Key, resp.Cached, resp.Degraded)
			return resp, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var be *BudgetError
		if errors.As(err, &be) {
			// Terminal by design: retrying or falling over past an
			// exhausted budget is exactly the load amplification the
			// budget exists to prevent.
			c.failures.Inc()
			return nil, err
		}
		if isTransport(err) {
			c.noteDown(s)
			lastTransport = err
			continue
		}
		// An in-band answer (validation rejection, simulation failure):
		// the shard is alive and every shard would say the same.
		c.noteUp(s)
		c.failures.Inc()
		return nil, err
	}
	if c.cfg.Fallback != nil {
		resp, err := c.cfg.Fallback.Predict(ctx, req)
		if err != nil {
			c.failures.Inc()
			return nil, err
		}
		resp.Degraded = true
		c.fallbackServed.Inc()
		c.noteServed(res.Key, resp.Cached, true)
		return resp, nil
	}
	c.failures.Inc()
	return nil, noShardError(lastTransport)
}

// pendingItem is one not-yet-answered batch slot during fan-out.
type pendingItem struct {
	idx int
	seq []int // ring preference order (slots) for the item's key
	hop int   // next position in seq to try
}

// PredictBatch partitions the batch by ring owner, fans the
// sub-batches out concurrently and merges the shard responses back
// into request order. Per-item semantics are exactly a single node's:
// invalid items fail alone with identical wording (the router and the
// shards share one resolver), duplicates of one key land in one
// sub-batch so coalescing accounting is preserved, and Distinct /
// Coalesced are the sums over sub-batches — equal to the single-node
// counts because the keyspace partition is exact. When a sub-batch
// fails in transport its items re-route to each key's next preferred
// shard; items with no reachable shard left fail alone — or, with a
// fallback configured, are computed locally and marked Degraded.
func (c *Client) PredictBatch(ctx context.Context, req serve.BatchRequest) (*serve.BatchResponse, error) {
	if len(req.Requests) == 0 {
		c.failures.Inc()
		return nil, serve.BadRequestf("batch: empty request list")
	}
	if len(req.Requests) > serve.MaxBatchItems {
		c.failures.Inc()
		return nil, serve.BadRequestf("batch: %d items exceeds limit %d", len(req.Requests), serve.MaxBatchItems)
	}
	c.batches.Inc()
	c.items.Add(int64(len(req.Requests)))

	topo := c.topology()
	resp := &serve.BatchResponse{Items: make([]serve.BatchItem, len(req.Requests))}
	keys := make([]serve.Key, len(req.Requests))
	valid := make([]bool, len(req.Requests))
	var pending []*pendingItem
	for i, pr := range req.Requests {
		res, err := serve.ResolveRequest(pr, c.cfg.MaxSize)
		if err != nil {
			c.failures.Inc()
			resp.Items[i] = serve.BatchItem{Error: err.Error()}
			continue
		}
		keys[i], valid[i] = res.Key, true
		pending = append(pending, &pendingItem{idx: i, seq: topo.ring.Sequence(res.Key.RouteString())})
	}

	var mu sync.Mutex // guards resp.Distinct/Coalesced merges
	var fbPending []*pendingItem
	round := 0
	for len(pending) > 0 {
		// Snapshot availability once per round: available() admits at
		// most one half-open probe per cooldown, and a per-item check
		// could hand the probe admission to one duplicate of a key
		// while its siblings skip ahead — splitting a key group across
		// sub-batches and skewing the coalescing accounting.
		alive := make(map[int]bool, len(topo.shards))
		for slot, s := range topo.shards {
			alive[slot] = s.available(c.cfg.Cooldown)
		}
		// Route every pending item to the first available shard in its
		// preference sequence; items that have run out of shards fail.
		groups := make(map[int][]*pendingItem)
		var shardOrder []int
		for _, p := range pending {
			target := -1
			for p.hop < len(p.seq) {
				if alive[p.seq[p.hop]] {
					target = p.seq[p.hop]
					break
				}
				p.hop++
			}
			if target < 0 {
				if c.cfg.Fallback != nil {
					fbPending = append(fbPending, p)
					continue
				}
				c.failures.Inc()
				resp.Items[p.idx] = serve.BatchItem{Error: noShardError(nil).Error()}
				continue
			}
			if _, ok := groups[target]; !ok {
				shardOrder = append(shardOrder, target)
			}
			groups[target] = append(groups[target], p)
		}
		if len(shardOrder) == 0 {
			break
		}
		c.fanoutWidth.Observe(int64(len(shardOrder)))

		// Fan out one sub-batch per shard; collect the items each
		// transport failure sends around the ring for the next round.
		// Budget accounting treats each sub-batch round trip as one
		// upstream attempt: a round-0 sub-batch is a request's first
		// attempt (free), every requeued round and every same-shard
		// retry inside retryCall draws a token.
		requeue := make([][]*pendingItem, len(shardOrder))
		var wg sync.WaitGroup
		for gi, slot := range shardOrder {
			wg.Add(1)
			go func(gi, slot int, members []*pendingItem, firstAttempt bool) {
				defer wg.Done()
				s := topo.state(slot)
				c.subbatches.Inc()
				// The sub-batch span parents the shard's server span
				// (HTTPBackend carries it in headers), which is what the
				// router→shard linkage test and the CI obs job assert on.
				subCtx, subSpan := c.tracer.StartSpan(ctx, "cluster.subbatch")
				subSpan.SetAttr("shard", s.name)
				subSpan.SetAttr("items", strconv.Itoa(len(members)))
				defer subSpan.End()
				sub := serve.BatchRequest{Requests: make([]serve.PredictRequest, len(members))}
				for i, p := range members {
					sub.Requests[i] = req.Requests[p.idx]
				}
				sr, err := retryCall(c, subCtx, s, &firstAttempt, func(actx context.Context) (*serve.BatchResponse, error) {
					sr, err := s.backend.PredictBatch(actx, sub)
					if err == nil && len(sr.Items) != len(members) {
						// A mis-sized response was still a response: the
						// shard processed the batch, so fail over rather
						// than replay it there.
						err = &TransportError{
							Shard:    s.name,
							Err:      fmt.Errorf("batch returned %d items for %d requests", len(sr.Items), len(members)),
							Received: true,
						}
					}
					return sr, err
				})
				subSpan.SetError(err)
				if err == nil {
					c.noteUp(s)
					for i, p := range members {
						resp.Items[p.idx] = sr.Items[i]
					}
					mu.Lock()
					resp.Distinct += sr.Distinct
					resp.Coalesced += sr.Coalesced
					mu.Unlock()
					return
				}
				if ctx.Err() != nil {
					// Caller cancellation: fail the items in-band, the
					// way a single node's pool reports cancelled
					// groups, and do not blame the shard.
					for _, p := range members {
						resp.Items[p.idx] = serve.BatchItem{Error: err.Error()}
					}
					return
				}
				var be *BudgetError
				if errors.As(err, &be) {
					// Exhausted budget is terminal in-band; these items
					// neither re-route nor fall back.
					for _, p := range members {
						c.failures.Inc()
						resp.Items[p.idx] = serve.BatchItem{Error: err.Error()}
					}
					return
				}
				if isTransport(err) {
					c.noteDown(s)
					c.reroutes.Inc()
					for _, p := range members {
						p.hop++
					}
					requeue[gi] = members
					return
				}
				// In-band failure of the whole sub-batch (e.g. a shard
				// 500): deterministic, so report it per item rather
				// than re-routing a computation that would fail
				// identically elsewhere.
				c.noteUp(s)
				for _, p := range members {
					resp.Items[p.idx] = serve.BatchItem{Error: err.Error()}
				}
			}(gi, slot, groups[slot], round == 0)
		}
		wg.Wait()

		pending = pending[:0]
		for _, members := range requeue {
			pending = append(pending, members...)
		}
		// Keep re-routed items in original request order so a shard
		// sees first occurrences of a key in the same relative order a
		// single node would.
		sort.Slice(pending, func(a, b int) bool { return pending[a].idx < pending[b].idx })
		round++
	}
	if len(fbPending) > 0 {
		c.fallbackBatch(ctx, req, resp, fbPending, &mu)
	}
	for i, item := range resp.Items {
		if valid[i] && item.Response != nil {
			c.noteServed(keys[i], item.Response.Cached, item.Response.Degraded)
		}
	}
	return resp, nil
}

// fallbackBatch answers the items whose every replica was unreachable
// by computing them locally on the configured fallback core. Items are
// replayed in request order (duplicates of one key moved here together,
// so coalescing accounting carries over) and every answer is marked
// Degraded.
func (c *Client) fallbackBatch(ctx context.Context, req serve.BatchRequest, resp *serve.BatchResponse, members []*pendingItem, mu *sync.Mutex) {
	sort.Slice(members, func(a, b int) bool { return members[a].idx < members[b].idx })
	sub := serve.BatchRequest{Requests: make([]serve.PredictRequest, len(members))}
	for i, p := range members {
		sub.Requests[i] = req.Requests[p.idx]
	}
	sr, err := c.cfg.Fallback.PredictBatch(ctx, sub)
	if err == nil && len(sr.Items) != len(members) {
		err = fmt.Errorf("cluster: fallback returned %d items for %d requests", len(sr.Items), len(members))
	}
	if err != nil {
		for _, p := range members {
			c.failures.Inc()
			resp.Items[p.idx] = serve.BatchItem{Error: err.Error()}
		}
		return
	}
	for i, p := range members {
		item := sr.Items[i]
		if item.Response != nil {
			item.Response.Degraded = true
			c.fallbackServed.Inc()
		}
		resp.Items[p.idx] = item
	}
	mu.Lock()
	resp.Distinct += sr.Distinct
	resp.Coalesced += sr.Coalesced
	mu.Unlock()
}

// Train broadcasts the retrain to every shard — draining members
// included, since they keep answering reads until removed: the
// keyspace for one (device, dtype) spans the whole ring (patterns and
// sizes hash everywhere), so every shard must swap in the new model.
// The merged response reports the first shard's fit (all shards train
// the same deterministic sweep, so the weights are identical) with
// Purged summed across the ring. Any shard failure fails the call — a
// half-trained ring would serve two models for one keyspace. Train is
// exempt from per-attempt timeouts and retries: retrains legitimately
// outlive any per-attempt budget, and a retried broadcast could apply
// twice on some shards while a caller-visible failure is already the
// safe outcome (the ring still serves the old model everywhere the
// train failed to land, and the caller re-issues).
func (c *Client) Train(ctx context.Context, req serve.TrainRequest) (*serve.TrainResponse, error) {
	c.requests.Inc()
	topo := c.topology()
	slots := topo.slots()
	type result struct {
		resp *serve.TrainResponse
		err  error
	}
	results := make([]result, len(slots))
	var wg sync.WaitGroup
	for i, slot := range slots {
		s := topo.state(slot)
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			resp, err := s.backend.Train(ctx, req)
			if err == nil {
				c.noteUp(s)
			} else if ctx.Err() == nil && isTransport(err) {
				c.noteDown(s)
			}
			results[i] = result{resp: resp, err: err}
		}(i, s)
	}
	wg.Wait()

	var merged *serve.TrainResponse
	purged := 0
	for i, r := range results {
		if r.err != nil {
			c.failures.Inc()
			if isTransport(r.err) {
				return nil, fmt.Errorf("cluster: train on shard %s: %w", topo.state(slots[i]).name, r.err)
			}
			// An in-band rejection (bad corpus, deterministic sweep
			// failure) is identical on every shard; report it exactly
			// as a single node would.
			return nil, r.err
		}
		purged += r.resp.Purged
		if merged == nil {
			merged = r.resp
		}
	}
	merged.Purged = purged
	return merged, nil
}

// Health polls every shard and aggregates: status "ok" when the whole
// ring answered, "degraded" when some shards are down — or when the
// whole ring is out but a fallback core can still answer (live but
// degraded) — and "down" when none answered and nothing can. Each
// probe runs under its own AttemptTimeout so one hung shard cannot
// stall the whole health report. Devices and dtypes come from the
// first healthy shard (the vocabulary is identical everywhere);
// CacheLen is the ring-wide total.
func (c *Client) Health(ctx context.Context) (*serve.HealthResponse, error) {
	topo := c.topology()
	members := topo.ring.Members()
	healths := make([]*serve.HealthResponse, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		s := topo.state(m.Slot)
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			probeCtx := ctx
			var cancel context.CancelFunc
			if c.cfg.AttemptTimeout > 0 {
				probeCtx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
				defer cancel()
			}
			h, err := s.backend.Health(probeCtx)
			if err != nil {
				if ctx.Err() == nil && isTransport(classify(ctx, probeCtx, s.name, err)) {
					c.noteDown(s)
				}
				return
			}
			c.noteUp(s)
			healths[i] = h
		}(i, s)
	}
	wg.Wait()

	// The health fan-out already carried every reachable shard's
	// metrics snapshot; fold those in directly instead of paying a
	// second round of /metrics fetches through Metrics().
	metrics := c.metrics.Snapshot()
	out := &serve.HealthResponse{
		Status:  "down",
		Metrics: metrics,
		Shards:  make([]serve.ShardHealth, len(members)),
	}
	up := 0
	for i, h := range healths {
		sh := serve.ShardHealth{
			Name:     topo.state(members[i].Slot).name,
			Status:   "down",
			Slot:     members[i].Slot,
			Draining: members[i].Draining,
		}
		if h != nil {
			up++
			sh.Status = h.Status
			sh.CacheLen = h.CacheLen
			out.CacheLen += h.CacheLen
			if out.Devices == nil {
				out.Devices = h.Devices
				out.DTypes = h.DTypes
			}
			for k, v := range h.Metrics {
				if strings.HasPrefix(k, "serve.") {
					metrics[k] += v
				}
			}
		}
		out.Shards[i] = sh
	}
	switch {
	case up == len(members):
		out.Status = "ok"
	case up > 0:
		out.Status = "degraded"
	case c.cfg.Fallback != nil:
		// Whole ring out, but the local fallback keeps answering:
		// live-but-degraded, which GET /readyz surfaces as 503 while
		// /healthz stays an honest "the process is up".
		out.Status = "degraded"
	}
	return out, nil
}

// Metrics snapshots the router's own cluster.* counters and folds in
// the reachable shards' serve.* counters (summed across the ring), so
// a router /metrics shows both routing behaviour and ring-wide cache
// effectiveness.
func (c *Client) Metrics() map[string]int64 {
	topo := c.topology()
	out := c.metrics.Snapshot()
	for _, slot := range topo.slots() {
		s := topo.state(slot)
		if !s.up() {
			continue
		}
		for k, v := range s.backend.Metrics() {
			if strings.HasPrefix(k, "serve.") {
				out[k] += v
			}
		}
	}
	return out
}

// Tracer exposes the router's span source (serve.TracerProvider), so
// Handler runs routed requests under server spans and mounts
// GET /debug/spans on the router.
func (c *Client) Tracer() *obs.Tracer { return c.tracer }

// Histograms snapshots the router's own latency/width distributions
// (serve.HistogramSource). Shard-side distributions are scraped from
// the shards directly — each process exposes its own.
func (c *Client) Histograms() map[string]obs.HistogramSnapshot {
	return c.metrics.HistogramSnapshots()
}

// PromMetrics returns the router's typed exposition snapshot
// (serve.PromSource): its own cluster.* counters, gauges and
// histograms. Unlike the JSON Metrics fold, prom scrapes are
// per-process by convention — shards are scraped individually.
func (c *Client) PromMetrics() obs.PromSnapshot { return c.metrics.PromSnapshot() }

// Close closes every shard backend and the fallback, if any.
func (c *Client) Close() {
	topo := c.topology()
	for _, s := range topo.shards {
		s.backend.Close()
	}
	if c.cfg.Fallback != nil {
		c.cfg.Fallback.Close()
	}
}

// noShardError is the per-item/request failure when the ring has no
// reachable owner left for a key.
func noShardError(last error) error {
	if last != nil {
		return fmt.Errorf("cluster: no shard available: %w", last)
	}
	return fmt.Errorf("cluster: no shard available")
}

var _ serve.Backend = (*Client)(nil)
