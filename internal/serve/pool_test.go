package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestPoolRunsTasks(t *testing.T) {
	p := newPool(4, 8, nil)
	defer p.Close()
	v, err := p.Do(context.Background(), 7, func() (any, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 42 {
		t.Errorf("got %v, want 42", v)
	}
}

func TestPoolSameKeySerializes(t *testing.T) {
	// Two tasks with the same key must never overlap in time.
	p := newPool(4, 8, nil)
	defer p.Close()
	var active, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = p.Do(context.Background(), 99, func() (any, error) {
				n := active.Add(1)
				for {
					pk := peak.Load()
					if n <= pk || peak.CompareAndSwap(pk, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				active.Add(-1)
				return nil, nil
			})
		}()
	}
	wg.Wait()
	if peak.Load() != 1 {
		t.Errorf("peak concurrency %d for one key, want 1", peak.Load())
	}
}

func TestPoolDistinctKeysRunConcurrently(t *testing.T) {
	p := newPool(4, 8, nil)
	defer p.Close()
	var active, peak atomic.Int32
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			_, _ = p.Do(context.Background(), key, func() (any, error) {
				n := active.Add(1)
				for {
					pk := peak.Load()
					if n <= pk || peak.CompareAndSwap(pk, n) {
						break
					}
				}
				<-release
				active.Add(-1)
				return nil, nil
			})
		}(uint64(i))
	}
	// Give the workers a moment to pick everything up, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if peak.Load() < 2 {
		t.Errorf("peak concurrency %d across 4 shards, want ≥ 2", peak.Load())
	}
}

func TestPoolQueueDepthGauge(t *testing.T) {
	depth := &obs.Gauge{}
	p := newPool(1, 8, depth)
	block := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = p.Do(context.Background(), 0, func() (any, error) {
				<-block
				return nil, nil
			})
		}()
	}
	// Wait until all four tasks are counted as queued or running.
	deadline := time.Now().Add(2 * time.Second)
	for depth.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := depth.Load(); got != 4 {
		t.Errorf("queue depth = %d with 4 pending tasks, want 4", got)
	}
	close(block)
	wg.Wait()
	p.Close()
	if got := depth.Load(); got != 0 {
		t.Errorf("queue depth = %d after drain, want 0", got)
	}
	if hw := depth.HighWater(); hw != 4 {
		t.Errorf("queue high water = %d, want 4", hw)
	}
}

func TestPoolContextCancelWhileQueued(t *testing.T) {
	p := newPool(1, 1, nil)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	go p.Do(context.Background(), 0, func() (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	// The shard is busy; this Do waits on the result and must give up
	// when the context dies.
	_, err := p.Do(ctx, 0, func() (any, error) { return nil, nil })
	if err != context.DeadlineExceeded {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

func TestPoolClosedRejects(t *testing.T) {
	p := newPool(1, 1, nil)
	p.Close()
	p.Close() // idempotent
	if _, err := p.Do(context.Background(), 0, func() (any, error) { return nil, nil }); err == nil {
		t.Error("closed pool must reject tasks")
	}
}
