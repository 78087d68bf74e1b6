package cluster

// Live topology changes. AddShard and DrainShard each produce the next
// ring epoch and — before installing it — warm the keys' new owners
// with the donor shards' cache entries, so a resize under live traffic
// costs at most the entries created during the handoff window, not the
// whole moved keyspace. The warmup path is export/import
// (serve.CacheMigrator) with a targeted-replay fallback: when a donor
// cannot export (down, faulted, or not a migrator), the router replays
// its journal of recently served keys in the moved ranges directly
// against the new owner, recomputing the same deterministic answers.
// Replay calls the destination backend directly — NOT through
// retryCall — so a warmup never spends retry budget or pollutes the
// cluster.retry.* counters.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/serve"
)

// ResizeReport summarizes one topology change: what moved and how the
// new owners were warmed.
type ResizeReport struct {
	// Op is "add", "drain" or "remove".
	Op string `json:"op"`
	// Epoch is the ring epoch after the change.
	Epoch int `json:"epoch"`
	// Slot is the member the operation acted on.
	Slot int `json:"slot"`
	// Name is the member's shard name.
	Name string `json:"name"`
	// Shards is the active member count after the change.
	Shards int `json:"shards"`
	// RangesMoved counts the hash arcs whose owner changed.
	RangesMoved int `json:"ranges_moved"`
	// KeysMoved counts journaled keys that fell in moved ranges —
	// the known-warm keys the handoff had to carry.
	KeysMoved int `json:"keys_moved"`
	// EntriesMigrated counts cache entries carried by export/import.
	EntriesMigrated int `json:"entries_migrated"`
	// Replayed counts keys re-computed on the new owner by the
	// targeted-replay fallback.
	Replayed int `json:"replayed,omitempty"`
	// ReplayFailures counts replayed keys whose recompute failed; those
	// keys stay cold until traffic touches them.
	ReplayFailures int `json:"replay_failures,omitempty"`
	// ExportFailures counts donor→dest handoffs that fell back to
	// replay because export or import failed.
	ExportFailures int `json:"export_failures,omitempty"`
	// Removed reports that a drain was completed by removing the member
	// in the same admin call.
	Removed bool `json:"removed,omitempty"`
}

// AddShard grows the ring by one member serving backend under name
// (empty = "shard<slot>"), warming the new member with the cache
// entries it now owns before any request routes to it. Requests in
// flight keep routing against the old epoch until the handoff
// completes, so a sequential request stream observes byte-identical
// answers across the resize.
func (c *Client) AddShard(ctx context.Context, name string, backend serve.Backend) (*ResizeReport, error) {
	if backend == nil {
		return nil, serve.BadRequestf("add shard: no backend")
	}
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()

	old := c.topology()
	if name != "" {
		for _, s := range old.shards {
			if s.name == name {
				return nil, serve.BadRequestf("add shard: name %q already in ring", name)
			}
		}
	}
	ring, slot := old.ring.Add()
	if name == "" {
		name = fmt.Sprintf("shard%d", slot)
	}
	st := &shardState{name: name, backend: backend}
	shards := make(map[int]*shardState, len(old.shards)+1)
	for s, v := range old.shards {
		shards[s] = v
	}
	shards[slot] = st

	rep := &ResizeReport{
		Op:     "add",
		Epoch:  ring.Epoch(),
		Slot:   slot,
		Name:   name,
		Shards: ring.ActiveShards(),
	}
	moves := DiffOwnership(old.ring, ring)
	state := func(s int) *shardState { return shards[s] }
	c.handoff(ctx, moves, state, rep)

	c.install(&topology{ring: ring, shards: shards})
	c.resizeEpochs.Inc()
	return rep, nil
}

// DrainShard withdraws the member's ownership: its keys move to their
// next ring owners, warmed from the draining member's cache first. The
// member stays addressable (a last-resort read replica) until
// RemoveShard. Draining the last active member is an error.
func (c *Client) DrainShard(ctx context.Context, slot int) (*ResizeReport, error) {
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()

	old := c.topology()
	ring, err := old.ring.Drain(slot)
	if err != nil {
		return nil, serve.BadRequestf("%v", err)
	}
	rep := &ResizeReport{
		Op:     "drain",
		Epoch:  ring.Epoch(),
		Slot:   slot,
		Name:   old.state(slot).name,
		Shards: ring.ActiveShards(),
	}
	moves := DiffOwnership(old.ring, ring)
	c.handoff(ctx, moves, old.state, rep)

	// The shard map is shared unchanged: the drained member still
	// serves as a read replica until removed.
	c.install(&topology{ring: ring, shards: old.shards})
	c.resizeEpochs.Inc()
	return rep, nil
}

// RemoveShard detaches a drained member and closes its backend. The
// member must have been drained first — removal moves no ownership, so
// removing an active member would orphan its cache without a handoff.
func (c *Client) RemoveShard(slot int) (*ResizeReport, error) {
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()

	old := c.topology()
	m, ok := old.ring.Lookup(slot)
	if !ok {
		return nil, serve.BadRequestf("cluster: ring has no member %d", slot)
	}
	if !m.Draining {
		return nil, serve.BadRequestf("cluster: member %d is not draining; drain it first", slot)
	}
	ring, err := old.ring.Remove(slot)
	if err != nil {
		return nil, serve.BadRequestf("%v", err)
	}
	st := old.state(slot)
	shards := make(map[int]*shardState, len(old.shards)-1)
	for s, v := range old.shards {
		if s != slot {
			shards[s] = v
		}
	}
	c.install(&topology{ring: ring, shards: shards})
	c.resizeEpochs.Inc()
	if !st.up() {
		c.downGauge.Dec()
	}
	st.backend.Close()
	return &ResizeReport{
		Op:     "remove",
		Epoch:  ring.Epoch(),
		Slot:   slot,
		Name:   st.name,
		Shards: ring.ActiveShards(),
	}, nil
}

// handoff warms every move's new owner before the epoch flips,
// preferring cache export/import and falling back to targeted journal
// replay per donor→dest pair. Handoff failures are deliberately
// non-fatal: the resize proceeds and the un-warmed keys surface as the
// bounded hit-rate dip the cluster.resize.* counters measure.
func (c *Client) handoff(ctx context.Context, moves []RangeMove, state func(int) *shardState, rep *ResizeReport) {
	rep.RangesMoved = len(moves)
	c.rangesMoved.Add(int64(len(moves)))
	if len(moves) == 0 {
		return
	}

	// Group moved arcs by (donor, dest) pair so each pair costs one
	// export/import round trip; deterministic pair order keeps warmup
	// traffic reproducible run to run.
	type pair struct{ from, to int }
	grouped := make(map[pair][]serve.HashRange)
	var order []pair
	for _, mv := range moves {
		p := pair{from: mv.From, to: mv.To}
		if _, ok := grouped[p]; !ok {
			order = append(order, p)
		}
		grouped[p] = append(grouped[p], mv.Range)
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].from != order[b].from {
			return order[a].from < order[b].from
		}
		return order[a].to < order[b].to
	})

	for _, p := range order {
		ranges := grouped[p]
		donor, dest := state(p.from), state(p.to)
		moved := len(c.journal.inRanges(ranges))
		rep.KeysMoved += moved
		c.keysMoved.Add(int64(moved))
		migrated, err := migrate(ctx, donor, dest, ranges)
		if err == nil {
			rep.EntriesMigrated += migrated
			c.entriesMigrated.Add(int64(migrated))
			continue
		}
		rep.ExportFailures++
		c.exportFailures.Inc()
		c.replayRanges(ctx, dest, ranges, rep)
	}
}

// migrate carries the donor's cache entries in ranges to dest via the
// CacheMigrator pair, returning how many entries the destination
// accepted.
func migrate(ctx context.Context, donor, dest *shardState, ranges []serve.HashRange) (int, error) {
	exp, ok := donor.backend.(serve.CacheMigrator)
	if !ok {
		return 0, fmt.Errorf("cluster: shard %s cannot export its cache", donor.name)
	}
	imp, ok := dest.backend.(serve.CacheMigrator)
	if !ok {
		return 0, fmt.Errorf("cluster: shard %s cannot import a cache", dest.name)
	}
	snap, err := exp.ExportCache(ctx, ranges)
	if err != nil {
		return 0, fmt.Errorf("cluster: export from %s: %w", donor.name, err)
	}
	res, err := imp.ImportCache(ctx, *snap)
	if err != nil {
		return 0, fmt.Errorf("cluster: import into %s: %w", dest.name, err)
	}
	return res.Imported, nil
}

// replayRanges is the warmup fallback: recompute the journaled keys in
// the moved ranges directly on the new owner. Each key is one direct
// Predict — no retryCall, no budget, no cluster.retry.* accounting —
// because warmup is best-effort background work, not request traffic.
func (c *Client) replayRanges(ctx context.Context, dest *shardState, ranges []serve.HashRange, rep *ResizeReport) {
	for _, je := range c.journal.inRanges(ranges) {
		if ctx.Err() != nil {
			return
		}
		if _, err := dest.backend.Predict(ctx, je.req); err != nil {
			rep.ReplayFailures++
			c.replayFailures.Inc()
			continue
		}
		rep.Replayed++
		c.replayed.Inc()
	}
}
