package cluster

// The retry layer: per-attempt deadlines, bounded same-shard retries
// with decorrelated-jitter backoff, and a ring-wide token-bucket retry
// budget. The layer sits between Client's routing loops and the shard
// backends, and its one invariant is inherited from the equivalence
// machinery: a retried attempt must be indistinguishable from a first
// attempt. That is why a response that was *received* and then broke
// (TransportError.Received) is never replayed on the same shard — the
// shard did the work, and replaying could only change cache-warmth
// accounting — and why budget exhaustion is a terminal in-band error
// rather than a license to keep hammering a dying ring.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Retry defaults (see Config).
const (
	// DefaultAttemptTimeout bounds one upstream attempt.
	DefaultAttemptTimeout = 30 * time.Second
	// DefaultMaxRetries is the same-shard retry allowance after the
	// initial attempt.
	DefaultMaxRetries = 2
	// DefaultRetryBase is the decorrelated-jitter floor.
	DefaultRetryBase = 25 * time.Millisecond
	// DefaultRetryCap is the decorrelated-jitter ceiling.
	DefaultRetryCap = 250 * time.Millisecond
	// DefaultRetryBudget is the token-bucket capacity: the number of
	// extra upstream attempts (retries and failover hops beyond each
	// request's first) the client may spend before exhaustion.
	DefaultRetryBudget = 64
	// DefaultRetryRefillPerSec restores budget tokens over time.
	DefaultRetryRefillPerSec = 8
	// retrySeed seeds the backoff jitter, keeping runs reproducible.
	retrySeed = 0x9e3779b97f4a7c15
)

// BudgetError reports that the retry budget was exhausted before the
// request could be answered: the ring is failing faster than the
// configured token refill, and the client refuses to amplify the load.
// It is terminal and in-band — no further retries, no failover, no
// fallback — so a retry storm is bounded by construction.
type BudgetError struct {
	// Last is the transport failure that triggered the refused attempt,
	// when there was one.
	Last error
}

// Error formats the exhaustion.
func (e *BudgetError) Error() string {
	if e.Last != nil {
		return "cluster: retry budget exhausted: " + e.Last.Error()
	}
	return "cluster: retry budget exhausted"
}

// Unwrap exposes the triggering failure.
func (e *BudgetError) Unwrap() error { return e.Last }

// tokenBucket is the retry budget: capacity tokens, refilled
// continuously. A nil bucket means unlimited.
type tokenBucket struct {
	mu           sync.Mutex
	tokens       float64
	capacity     float64
	refillPerSec float64
	last         time.Time
	now          func() time.Time // injectable for tests
}

func newTokenBucket(capacity int, refillPerSec float64) *tokenBucket {
	b := &tokenBucket{
		tokens:   float64(capacity),
		capacity: float64(capacity),
		now:      time.Now,
	}
	if refillPerSec > 0 {
		b.refillPerSec = refillPerSec
	}
	b.last = b.now()
	return b
}

// take consumes one token, refilling by elapsed wall-clock first;
// false means the budget is exhausted right now.
func (b *tokenBucket) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if b.refillPerSec > 0 {
		b.tokens += now.Sub(b.last).Seconds() * b.refillPerSec
		if b.tokens > b.capacity {
			b.tokens = b.capacity
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// backoff generates decorrelated-jitter delays: each delay is uniform
// in [base, 3*prev], clamped to cap — the spread de-synchronizes
// retrying callers while the growth keeps pressure off a struggling
// shard. Seeded, so tests can assert exact bounds on the sequence.
type backoff struct {
	mu   sync.Mutex
	rnd  *rand.Rand
	base time.Duration
	cap  time.Duration
}

func newBackoff(base, cap time.Duration, seed uint64) *backoff {
	return &backoff{
		rnd:  rand.New(rand.NewSource(int64(seed))),
		base: base,
		cap:  cap,
	}
}

// next returns the delay to sleep before the attempt following one
// that waited prev (pass base for the first retry).
func (b *backoff) next(prev time.Duration) time.Duration {
	hi := 3 * prev
	if hi > b.cap {
		hi = b.cap
	}
	if hi <= b.base {
		return b.base
	}
	b.mu.Lock()
	d := b.base + time.Duration(b.rnd.Int63n(int64(hi-b.base)+1))
	b.mu.Unlock()
	return d
}

// classify folds per-attempt deadline expiry into the transport error
// taxonomy: caller cancellation passes through untouched (never an
// outage), expiry of the attempt's own deadline becomes a Timeout
// TransportError (an outage — the shard failed to answer within its
// budget), and everything else is returned as the backend reported it.
func classify(callerCtx, attemptCtx context.Context, shard string, err error) error {
	if err == nil {
		return nil
	}
	if ctxErr := callerCtx.Err(); ctxErr != nil {
		return ctxErr
	}
	if attemptCtx != callerCtx && attemptCtx.Err() != nil && !isTransport(err) {
		return &TransportError{Shard: shard, Err: err, Timeout: true}
	}
	return err
}

// takeToken draws one budget token, maintaining the budget counters; a
// nil bucket (unlimited budget) always succeeds.
func (c *Client) takeToken() bool {
	if c.budget == nil {
		return true
	}
	if !c.budget.take() {
		c.budgetExhausted.Inc()
		return false
	}
	c.budgetSpent.Inc()
	return true
}

// retryCall runs one shard call under the resilience policy: every
// attempt gets its own deadline (Config.AttemptTimeout), transport
// failures are retried on the same shard up to Config.MaxRetries times
// with decorrelated-jitter backoff, and each upstream attempt beyond
// the request's first — same-shard retries and failover hops alike —
// draws one token from the shared retry budget.
//
// first tracks whether the request has paid for its initial attempt
// yet: the routing loop passes one flag per logical request, so the
// first attempt at the first shard is free and everything after it is
// budgeted. A false return from the budget is terminal (*BudgetError).
//
// Two failures never retry on the same shard: caller cancellation
// (not an outage) and TransportError.Received (bytes arrived, so the
// shard already did the work — replaying it could change cache-warmth
// accounting; the routing loop fails over instead).
func retryCall[T any](c *Client, ctx context.Context, s *shardState, first *bool, call func(context.Context) (T, error)) (T, error) {
	var zero T
	var lastErr error
	prev := c.retryDelay.base
	for attempt := 0; ; attempt++ {
		if *first {
			*first = false
		} else if !c.takeToken() {
			return zero, &BudgetError{Last: lastErr}
		}
		if attempt > 0 {
			c.retryAttempts.Inc()
			d := c.retryDelay.next(prev)
			prev = d
			c.retrySleep.ObserveDuration(d)
			if err := sleepCtx(ctx, d); err != nil {
				return zero, err
			}
		}
		attemptCtx := ctx
		var cancel context.CancelFunc
		if c.cfg.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		}
		attemptStart := time.Now()
		resp, err := call(attemptCtx)
		c.attemptLat.ObserveDuration(time.Since(attemptStart))
		err = classify(ctx, attemptCtx, s.name, err)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			if attempt > 0 {
				c.retryRecovered.Inc()
			}
			return resp, nil
		}
		if ctx.Err() != nil {
			return zero, err
		}
		var te *TransportError
		if !errors.As(err, &te) {
			// In-band answer: deterministic, identical on every shard,
			// never retried.
			return zero, err
		}
		if te.Received || attempt >= c.maxRetries() {
			return zero, err
		}
		lastErr = err
	}
}

// maxRetries resolves Config.MaxRetries (0 = default, negative =
// none).
func (c *Client) maxRetries() int {
	switch {
	case c.cfg.MaxRetries < 0:
		return 0
	case c.cfg.MaxRetries == 0:
		return DefaultMaxRetries
	default:
		return c.cfg.MaxRetries
	}
}

// sleepCtx sleeps for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
