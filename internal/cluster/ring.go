// Package cluster shards the prediction keyspace across N serving
// backends behind one Backend-shaped front. A consistent-hash ring
// (virtual nodes, seeded placement, fully deterministic) maps every
// canonical (device, dtype, pattern, size) key to an owning shard; a
// fan-out/fan-in batch client partitions /predict/batch requests by
// owner, runs the sub-batches concurrently and merges the results
// preserving item order and per-item errors. Because every shard is a
// serve.Core — a deterministic function of the key — a sharded answer
// is byte-identical to a single-node answer, and a down shard can be
// re-routed around without changing a single output bit.
//
// The ring is versioned: Add, Drain and Remove each produce a new ring
// at the next epoch, DiffOwnership computes exactly which hash arcs
// changed owner between two epochs, and Client applies a topology
// change live — warming the new owner with the donor's cache entries
// first (serve.CacheMigrator) so the equivalence bar holds across a
// resize too.
//
// cmd/powerrouter mounts serve.Handler over a Client of HTTP shards,
// so on the wire a router is indistinguishable from one powerserve
// process; examples/loadgen -shards N spins an in-process ring to
// measure scaling.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/serve"
)

// Ring default parameters.
const (
	// DefaultVirtualNodes is the per-shard virtual-node count. 64
	// points per shard keeps the keyspace split within a few percent of
	// uniform for small rings while staying cheap to search.
	DefaultVirtualNodes = 64
	// DefaultSeed is the default placement seed. Routers and tests that
	// must agree on placement must share both seed and vnode count.
	DefaultSeed = 0xC1C4_11A5
)

// Member is one ring slot: a stable integer identity that survives
// other members joining and leaving. A member's ring points are a pure
// function of (seed, slot, vnodes), so adding and then removing a
// member restores the previous ownership exactly.
type Member struct {
	// Slot is the member's stable identity; NewRing numbers the initial
	// members 0..n-1 and Add hands out fresh slots monotonically.
	Slot int `json:"slot"`
	// Draining marks a member whose points have been withdrawn from
	// ownership: it no longer owns any key, but it stays addressable as
	// a last-resort read replica until removed.
	Draining bool `json:"draining,omitempty"`
}

// Ring is a deterministic consistent-hash ring over member slots.
// Placement depends only on (member slots, vnodes, seed): two routers
// built with equal parameters route every key identically, which is
// what lets independent router replicas front one shard set. Rings are
// immutable; Add, Drain and Remove return a new ring one epoch later.
type Ring struct {
	points   []ringPoint // active members' points, sorted by hash
	members  []Member    // sorted by slot
	active   int         // members not draining
	epoch    int
	vnodes   int
	seed     uint64
	nextSlot int
}

type ringPoint struct {
	hash uint64
	slot int
}

// NewRing places vnodes points per shard (0 = DefaultVirtualNodes) on
// the ring using the seeded hash (0 = DefaultSeed), numbering the
// initial members 0..shards-1 at epoch 0.
func NewRing(shards, vnodes int, seed uint64) *Ring {
	if shards < 1 {
		shards = 1
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	if seed == 0 {
		seed = DefaultSeed
	}
	r := &Ring{
		members:  make([]Member, shards),
		vnodes:   vnodes,
		seed:     seed,
		nextSlot: shards,
	}
	for s := 0; s < shards; s++ {
		r.members[s] = Member{Slot: s}
	}
	r.rebuild()
	return r
}

// rebuild recomputes the sorted point list and active count from the
// member list.
func (r *Ring) rebuild() {
	r.active = 0
	r.points = r.points[:0]
	for _, m := range r.members {
		if m.Draining {
			continue
		}
		r.active++
		for v := 0; v < r.vnodes; v++ {
			h := hashString(fmt.Sprintf("%016x/%d/%d", r.seed, m.Slot, v))
			r.points = append(r.points, ringPoint{hash: h, slot: m.Slot})
		}
	}
	// Tie-break equal hashes by slot so placement is a total order
	// regardless of sort stability.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].slot < r.points[b].slot
	})
}

// clone copies the ring one epoch later, sharing nothing mutable.
func (r *Ring) clone() *Ring {
	nr := &Ring{
		members:  append([]Member(nil), r.members...),
		epoch:    r.epoch + 1,
		vnodes:   r.vnodes,
		seed:     r.seed,
		nextSlot: r.nextSlot,
	}
	return nr
}

// Epoch returns the ring's version: 0 for a fresh ring, +1 per
// Add/Drain/Remove.
func (r *Ring) Epoch() int { return r.epoch }

// VirtualNodes returns the per-member ring point count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// ActiveShards returns the number of members that own keys.
func (r *Ring) ActiveShards() int { return r.active }

// Members returns a copy of the member list in slot order.
func (r *Ring) Members() []Member {
	return append([]Member(nil), r.members...)
}

// Lookup returns the member for slot, if present.
func (r *Ring) Lookup(slot int) (Member, bool) {
	for _, m := range r.members {
		if m.Slot == slot {
			return m, true
		}
	}
	return Member{}, false
}

// Add returns a ring one epoch later with a fresh member owning the
// next slot, and that slot.
func (r *Ring) Add() (*Ring, int) {
	nr := r.clone()
	slot := nr.nextSlot
	nr.nextSlot++
	nr.members = append(nr.members, Member{Slot: slot})
	nr.rebuild()
	return nr, slot
}

// Drain returns a ring one epoch later in which slot no longer owns
// any key but remains listed as a draining member (Sequence still
// reaches it last, so in-flight reads can complete against it). The
// last active member cannot drain — a ring must always own its
// keyspace.
func (r *Ring) Drain(slot int) (*Ring, error) {
	m, ok := r.Lookup(slot)
	if !ok {
		return nil, fmt.Errorf("cluster: ring has no member %d", slot)
	}
	if m.Draining {
		return nil, fmt.Errorf("cluster: member %d is already draining", slot)
	}
	if r.active <= 1 {
		return nil, fmt.Errorf("cluster: cannot drain the last active member %d", slot)
	}
	nr := r.clone()
	for i := range nr.members {
		if nr.members[i].Slot == slot {
			nr.members[i].Draining = true
		}
	}
	nr.rebuild()
	return nr, nil
}

// Remove returns a ring one epoch later without the member. Removing
// an active member moves its ownership in the same step (equivalent to
// Drain followed by Remove, one epoch apiece); the last active member
// cannot be removed.
func (r *Ring) Remove(slot int) (*Ring, error) {
	m, ok := r.Lookup(slot)
	if !ok {
		return nil, fmt.Errorf("cluster: ring has no member %d", slot)
	}
	if !m.Draining && r.active <= 1 {
		return nil, fmt.Errorf("cluster: cannot remove the last active member %d", slot)
	}
	nr := r.clone()
	out := nr.members[:0]
	for _, mm := range nr.members {
		if mm.Slot != slot {
			out = append(out, mm)
		}
	}
	nr.members = out
	nr.rebuild()
	return nr, nil
}

// Owner returns the slot owning key: the slot of the first active ring
// point at or clockwise of the key's hash.
// Only tests call it (FuzzRingEpochInvariants, TestRingSpreadsKeys);
// the router routes by Sequence.
func (r *Ring) Owner(key string) int {
	return r.ownerAt(hashString(key))
}

// ownerAt returns the slot owning hash position h.
func (r *Ring) ownerAt(h uint64) int {
	return r.points[r.firstPoint(h)].slot
}

// Sequence returns every member in the key's preference order: the
// owner first, then each distinct active member in clockwise ring
// order, then any draining members in ascending slot order — reachable
// as last-resort read replicas, never as owners. A client that walks
// the sequence re-routes around down shards deterministically — every
// router makes the same fallback choice.
func (r *Ring) Sequence(key string) []int {
	seq := make([]int, 0, len(r.members))
	seen := make(map[int]bool, len(r.members))
	if len(r.points) > 0 {
		start := r.firstPoint(hashString(key))
		for i := 0; i < len(r.points) && len(seq) < r.active; i++ {
			p := r.points[(start+i)%len(r.points)]
			if !seen[p.slot] {
				seen[p.slot] = true
				seq = append(seq, p.slot)
			}
		}
	}
	for _, m := range r.members {
		if m.Draining {
			seq = append(seq, m.Slot)
		}
	}
	return seq
}

// firstPoint returns the index of the first point with hash >= h,
// wrapping to 0 past the last point.
func (r *Ring) firstPoint(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// RangeMove is one arc of the hash space whose owner changed between
// two ring epochs: every key hashing into Range moves From one slot To
// another.
type RangeMove struct {
	Range serve.HashRange `json:"range"`
	From  int             `json:"from"`
	To    int             `json:"to"`
}

// DiffOwnership returns the exact set of hash arcs whose owner differs
// between two rings, as maximal merged ranges in ascending hash order.
// Both rings must share seed and vnodes (true for any two epochs of
// one ring lineage); the diff is deterministic and complete: a key
// changes owner across the epoch if and only if its hash lies in one
// of the returned ranges.
func DiffOwnership(old, next *Ring) []RangeMove {
	if len(old.points) == 0 || len(next.points) == 0 {
		return nil
	}
	// The union of both rings' point hashes cuts the hash space into
	// arcs on which both rings' ownership is constant (neither ring has
	// a point strictly inside an arc). Evaluate each arc at its
	// inclusive upper boundary.
	bounds := make([]uint64, 0, len(old.points)+len(next.points))
	for _, p := range old.points {
		bounds = append(bounds, p.hash)
	}
	for _, p := range next.points {
		bounds = append(bounds, p.hash)
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	uniq := bounds[:0]
	for i, b := range bounds {
		if i == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}

	var moves []RangeMove
	for i, b := range uniq {
		after := uniq[(i-1+len(uniq))%len(uniq)] // wraps for i == 0
		fromOwner := old.ownerAt(b)
		toOwner := next.ownerAt(b)
		if fromOwner == toOwner {
			continue
		}
		// Merge with the previous move when the arcs are adjacent and
		// agree on (from, to). The wrap arc (i == 0) never merges
		// backwards; a final wrap-adjacency pass is not worth the
		// complexity — ranges stay correct either way.
		if n := len(moves); n > 0 && i > 0 &&
			moves[n-1].Range.UpTo == after &&
			moves[n-1].From == fromOwner && moves[n-1].To == toOwner {
			moves[n-1].Range.UpTo = b
			continue
		}
		moves = append(moves, RangeMove{
			Range: serve.HashRange{After: after, UpTo: b},
			From:  fromOwner,
			To:    toOwner,
		})
	}
	return moves
}

// hashString is the ring's key hash — the canonical routing hash
// (64-bit FNV-1a) shared with serve's cache-handoff ranges, so a key
// the ring says moved is exactly a key the donor's export filter
// matches.
func hashString(s string) uint64 {
	return serve.RouteHash(s)
}
