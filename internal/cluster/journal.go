package cluster

// The replay journal: a bounded record of recently served keys in
// canonical request form. It exists for one reason — when a resize
// must warm a new owner and the donor shard cannot export its cache
// (down, mid-fault, or not a CacheMigrator), the router replays the
// journaled keys that fall in the moved ranges directly against the
// new owner, recomputing the same deterministic answers the donor's
// cache held. It also powers the cluster.resize.cold_misses counter:
// a journaled key answered uncached after a resize is exactly the
// hit-rate dip the handoff machinery is there to bound.

import (
	"container/list"
	"sync"

	"repro/internal/serve"
)

// journalSize bounds the replay journal.
const journalSize = 4096

// journalEntry is one remembered key.
type journalEntry struct {
	route string
	hash  uint64
	req   serve.PredictRequest // canonical form, replayable as-is
}

// keyJournal is a mutex-guarded bounded LRU of served keys. The
// iteration order of inRanges is eviction order (least recently served
// first), which is deterministic for a deterministic request stream.
type keyJournal struct {
	mu    sync.Mutex
	order *list.List // front = most recently served
	items map[string]*list.Element
}

func newKeyJournal() *keyJournal {
	return &keyJournal{
		order: list.New(),
		items: make(map[string]*list.Element, journalSize),
	}
}

// note records that key was just served, returning whether it was
// already journaled (i.e. this is a repeat of a known key).
func (j *keyJournal) note(key serve.Key) bool {
	route := key.RouteString()
	j.mu.Lock()
	defer j.mu.Unlock()
	if el, ok := j.items[route]; ok {
		j.order.MoveToFront(el)
		return true
	}
	j.items[route] = j.order.PushFront(&journalEntry{
		route: route,
		hash:  serve.RouteHash(route),
		req: serve.PredictRequest{
			Device:  key.Device,
			DType:   key.DType.String(),
			Pattern: key.Pattern,
			Size:    key.Size,
		},
	})
	for j.order.Len() > journalSize {
		oldest := j.order.Back()
		j.order.Remove(oldest)
		delete(j.items, oldest.Value.(*journalEntry).route)
	}
	return false
}

// inRanges returns the journaled entries whose hash falls in any of
// the ranges, least recently served first.
func (j *keyJournal) inRanges(ranges []serve.HashRange) []journalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []journalEntry
	for el := j.order.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*journalEntry); serve.HashRangesContain(ranges, e.hash) {
			out = append(out, *e)
		}
	}
	return out
}
