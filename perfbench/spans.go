package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one
// client request share the request's root through parent links.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder, or one switched off, records nothing and costs one load
// per boundary.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// enabled reports whether spans are being recorded.
func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// now is the recorder clock: nanoseconds since the recorder was made.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// openSpan is a span whose end has not been recorded yet. The zero
// value is inert.
type openSpan struct {
	r      *recorder
	id     uint64
	parent uint64
	start  int64
}

// begin opens a span under parent (0 = root) when recording is on.
func (r *recorder) begin(parent uint64) openSpan {
	if !r.enabled() {
		return openSpan{}
	}
	return openSpan{r: r, id: r.next.Add(1), parent: parent, start: r.now()}
}

// end closes the span under the given name. The name is chosen at the
// end so a call can be classified by its outcome (a cache hit or miss).
func (s openSpan) end(name string) {
	if s.r == nil {
		return
	}
	sp := span{ID: s.id, Parent: s.parent, Name: name, Start: s.start, End: s.r.now()}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, sp)
	s.r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans dumps spans as gzipped JSON lines.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("spans: %w", cerr)
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

type spanKey struct{}

// withSpan returns ctx carrying id as the parent for spans opened
// below it.
func withSpan(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

// spanFrom returns the span id ctx carries, or 0.
func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// parentHeader carries the caller's span id across a loopback HTTP
// hop, so a server-side span can name its client-side parent.
const parentHeader = "X-Bench-Parent"

// spanMiddleware records one span named name around every request the
// handler serves, parented on the caller's span from parentHeader, and
// hands that span to the handler through the request context.
func spanMiddleware(r *recorder, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.enabled() {
			next.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseUint(req.Header.Get(parentHeader), 10, 64)
		s := r.begin(parent)
		next.ServeHTTP(w, req.WithContext(withSpan(req.Context(), s.id)))
		s.end(name)
	})
}

// spanTransport stamps each outgoing request with the span id its
// context carries.
type spanTransport struct{ base http.RoundTripper }

// RoundTrip sets parentHeader and delegates to the base transport.
func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := spanFrom(req.Context())
	if id == 0 {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(parentHeader, strconv.FormatUint(id, 10))
	return t.base.RoundTrip(req)
}

// spanIndex groups spans by name and by parent, for self-time and
// per-layer reductions.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// descendants returns the intervals of every span below id whose name
// starts with prefix, searching the whole subtree.
func (ix spanIndex) descendants(id uint64, prefix string) []interval {
	var out []interval
	stack := []uint64{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range ix.children[cur] {
			if strings.HasPrefix(c.Name, prefix) {
				out = append(out, interval{c.Start, c.End})
				continue
			}
			stack = append(stack, c.ID)
		}
	}
	return out
}

// selfTimes returns, for every span whose name starts with name, its
// duration in nanoseconds minus the part covered by the nearest
// descendants whose names start with under.
func (ix spanIndex) selfTimes(name, under string) []float64 {
	var out []float64
	for n, spans := range ix.byName {
		if !strings.HasPrefix(n, name) {
			continue
		}
		for _, s := range spans {
			out = append(out, float64(selfTime(s.Start, s.End, ix.descendants(s.ID, under))))
		}
	}
	return out
}

// durations returns the durations in nanoseconds of every span named
// name.
func (ix spanIndex) durations(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, float64(s.End-s.Start))
	}
	return out
}
