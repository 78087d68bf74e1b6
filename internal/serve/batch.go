package serve

// Batched prediction: POST /predict/batch answers an ordered list of
// PredictRequests as one unit, coalescing items that resolve to the
// same (device, dtype, canonical pattern, size) key into a single
// cache/pool lookup. This is the entry point fleet-scale callers use
// (internal/fleet): a tick that needs power for thousands of queued
// jobs costs one simulation per distinct key, not per job.

import (
	"context"
	"sync"
	"time"
)

// MaxBatchItems bounds one /predict/batch request. The limit exists
// for the same reason MaxSize does: a batch buys at most MaxBatchItems
// distinct simulations, never unbounded compute.
const MaxBatchItems = 4096

// BatchRequest is the /predict/batch payload: an ordered list of
// prediction requests answered together. Items are independent — one
// invalid item fails alone, not the batch.
type BatchRequest struct {
	Requests []PredictRequest `json:"requests"`
}

// BatchItem is one slot of a batch response. Exactly one of Response
// and Error is set; Error carries the same message a single /predict
// would have rejected the item with.
type BatchItem struct {
	Response *PredictResponse `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// BatchResponse mirrors the request order item by item and reports how
// much work the batch actually bought.
type BatchResponse struct {
	// Items holds one entry per request, in request order.
	Items []BatchItem `json:"items"`
	// Distinct is the number of unique (device, dtype, canonical
	// pattern, size) keys among the valid items — the number of
	// cache/pool lookups the batch performed.
	Distinct int `json:"distinct"`
	// Coalesced counts valid items answered by sharing another item's
	// lookup: len(valid items) - Distinct.
	Coalesced int `json:"coalesced"`
}

// batchGroup is one distinct key's work unit: the resolved request
// parts plus every request index that collapsed onto the key.
type batchGroup struct {
	resolved Resolved
	indexes  []int
}

// PredictBatch serves a batch of predictions, answering every request
// that resolves to the same key with one shared lookup. Item order is
// preserved; per-item validation failures are reported in-place and do
// not fail sibling items. Keys the cache holds are answered inline;
// the others run concurrently through the same sharded pool as
// single-shot predictions, so a batch also coalesces against
// concurrent /predict traffic for the same keys.
func (c *Core) PredictBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	if len(req.Requests) == 0 {
		return nil, badRequestf("batch: empty request list")
	}
	if len(req.Requests) > MaxBatchItems {
		return nil, badRequestf("batch: %d items exceeds limit %d", len(req.Requests), MaxBatchItems)
	}
	c.batches.Inc()
	c.requests.Add(int64(len(req.Requests)))
	c.inflight.Inc()
	defer c.inflight.Dec()
	start := time.Now()
	defer func() { c.batchLat.ObserveDuration(time.Since(start)) }()

	resp := &BatchResponse{Items: make([]BatchItem, len(req.Requests))}

	// Group request indexes by resolved key. Iteration for execution
	// uses the first-seen order slice, not the map, so behaviour is
	// deterministic.
	groups := make(map[Key]*batchGroup)
	var order []*batchGroup
	var valid int
	for i, pr := range req.Requests {
		res, err := c.resolve(pr)
		if err != nil {
			c.failures.Inc()
			resp.Items[i] = BatchItem{Error: err.Error()}
			continue
		}
		valid++
		g, ok := groups[res.Key]
		if !ok {
			g = &batchGroup{resolved: res}
			groups[res.Key] = g
			order = append(order, g)
		}
		g.indexes = append(g.indexes, i)
	}
	resp.Distinct = len(order)
	resp.Coalesced = valid - len(order)
	c.coalesced.Add(int64(resp.Coalesced))

	// One lookup per distinct key. Keys the LRU holds are answered
	// inline; the rest fan out concurrently to the pool, which provides
	// the backpressure. Every valid item's response lives in one slab.
	slab := make([]PredictResponse, len(req.Requests))
	var wg sync.WaitGroup
	for _, g := range order {
		if r, ok := c.cached(g.resolved); ok {
			g.answer(resp.Items, slab, &r, nil)
			continue
		}
		wg.Add(1)
		go func(g *batchGroup) {
			defer wg.Done()
			r, err := c.predictMiss(ctx, g.resolved)
			g.answer(resp.Items, slab, r, err)
		}(g)
	}
	wg.Wait()
	return resp, nil
}

// answer writes the outcome of the group's lookup into its items,
// keeping each response in the item's slab slot.
func (g *batchGroup) answer(items []BatchItem, slab []PredictResponse, r *PredictResponse, err error) {
	for n, i := range g.indexes {
		if err != nil {
			items[i] = BatchItem{Error: err.Error()}
			continue
		}
		slab[i] = *r
		// Items beyond a group's first did not pay for the lookup,
		// whatever its outcome was; report them as served from shared
		// work.
		slab[i].Cached = r.Cached || n > 0
		items[i] = BatchItem{Response: &slab[i]}
	}
}
