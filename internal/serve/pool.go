package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// pool is a sharded worker pool: one goroutine per shard, each owning
// a FIFO of tasks. Tasks carry a sharding key; tasks with equal keys
// run on the same shard and therefore serialize, which is exactly what
// the serving layer wants — concurrent identical /predict requests
// queue behind the first one and then hit the cache it filled, instead
// of racing through the GEMM-simulation hot path in parallel.
type pool struct {
	shards []chan *task
	depth  *obs.Gauge
	wg     sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

type task struct {
	fn   func() (any, error)
	done chan taskResult
}

type taskResult struct {
	value any
	err   error
}

// newPool starts shards workers (0 = GOMAXPROCS) with the given
// per-shard queue capacity. depth, if non-nil, tracks the number of
// submitted-but-unfinished tasks.
func newPool(shards, queueCap int, depth *obs.Gauge) *pool {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if queueCap <= 0 {
		queueCap = 256
	}
	if depth == nil {
		depth = &obs.Gauge{}
	}
	p := &pool{
		shards: make([]chan *task, shards),
		depth:  depth,
	}
	for i := range p.shards {
		ch := make(chan *task, queueCap)
		p.shards[i] = ch
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range ch {
				v, err := t.fn()
				p.depth.Dec()
				t.done <- taskResult{value: v, err: err}
			}
		}()
	}
	return p
}

// Do runs fn on the shard selected by key and returns its result. It
// blocks while the shard's queue is full (backpressure) and honors ctx
// for both the wait to enqueue and the wait for the result; a task
// whose caller has gone away still runs, it just has nobody to report
// to.
func (p *pool) Do(ctx context.Context, key uint64, fn func() (any, error)) (any, error) {
	t := &task{fn: fn, done: make(chan taskResult, 1)}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, fmt.Errorf("serve: pool is closed")
	}
	ch := p.shards[key%uint64(len(p.shards))]
	p.depth.Inc()
	select {
	case ch <- t:
		p.mu.RUnlock()
	case <-ctx.Done():
		p.mu.RUnlock()
		p.depth.Dec()
		return nil, ctx.Err()
	}
	select {
	case r := <-t.done:
		return r.value, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops accepting tasks, runs out the queues and waits for the
// workers to exit.
func (p *pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, ch := range p.shards {
		close(ch)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
