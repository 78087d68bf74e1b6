package main

// Decorators that record spans at layer boundaries in traced runs. Each
// forwards every optional interface its inner value implements and no
// other, so the program takes the same code paths with or without
// them: serve.Handler probes TracerProvider, PromSource and
// CacheMigrator, direct consumers probe HistogramSource, the fleet
// report probes an oracle's Stats, and the fleet engine probes a
// policy's HorizonWindowS.

import (
	"context"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

// tracedBackend records one span per call into a serve.Backend, named
// layer + ".predict.hit", ".predict.miss", ".predict.error", ".batch",
// ".train" or ".health".
type tracedBackend struct {
	inner serve.Backend
	rec   *recorder
	layer string
}

// Predict records the call under the outcome's name.
func (b *tracedBackend) Predict(ctx context.Context, req serve.PredictRequest) (*serve.PredictResponse, error) {
	s := b.rec.begin(spanFrom(ctx))
	resp, err := b.inner.Predict(withSpan(ctx, s.id), req)
	switch {
	case err != nil:
		s.end(b.layer + ".predict.error")
	case resp.Cached:
		s.end(b.layer + ".predict.hit")
	default:
		s.end(b.layer + ".predict.miss")
	}
	return resp, err
}

// PredictBatch records the call.
func (b *tracedBackend) PredictBatch(ctx context.Context, req serve.BatchRequest) (*serve.BatchResponse, error) {
	s := b.rec.begin(spanFrom(ctx))
	resp, err := b.inner.PredictBatch(withSpan(ctx, s.id), req)
	s.end(b.layer + ".batch")
	return resp, err
}

// Train records the call.
func (b *tracedBackend) Train(ctx context.Context, req serve.TrainRequest) (*serve.TrainResponse, error) {
	s := b.rec.begin(spanFrom(ctx))
	resp, err := b.inner.Train(withSpan(ctx, s.id), req)
	s.end(b.layer + ".train")
	return resp, err
}

// Health records the call.
func (b *tracedBackend) Health(ctx context.Context) (*serve.HealthResponse, error) {
	s := b.rec.begin(spanFrom(ctx))
	resp, err := b.inner.Health(withSpan(ctx, s.id))
	s.end(b.layer + ".health")
	return resp, err
}

// Metrics forwards untraced: it carries no request context.
func (b *tracedBackend) Metrics() map[string]int64 { return b.inner.Metrics() }

// Close forwards.
func (b *tracedBackend) Close() { b.inner.Close() }

// migratingBackend is a tracedBackend over a serve.CacheMigrator, such
// as cluster.HTTPBackend.
type migratingBackend struct {
	*tracedBackend
	mig serve.CacheMigrator
}

// ExportCache forwards.
func (b migratingBackend) ExportCache(ctx context.Context, ranges []serve.HashRange) (*serve.CacheSnapshot, error) {
	return b.mig.ExportCache(ctx, ranges)
}

// ImportCache forwards.
func (b migratingBackend) ImportCache(ctx context.Context, snap serve.CacheSnapshot) (*serve.CacheImportResult, error) {
	return b.mig.ImportCache(ctx, snap)
}

// fullBackend is a migratingBackend that also forwards the tracer,
// Prometheus and histogram capabilities, as a serve.Core has them.
type fullBackend struct {
	migratingBackend
	full interface {
		serve.TracerProvider
		serve.PromSource
		serve.HistogramSource
	}
}

// Tracer forwards.
func (b fullBackend) Tracer() *obs.Tracer { return b.full.Tracer() }

// PromMetrics forwards.
func (b fullBackend) PromMetrics() obs.PromSnapshot { return b.full.PromMetrics() }

// Histograms forwards.
func (b fullBackend) Histograms() map[string]obs.HistogramSnapshot { return b.full.Histograms() }

// capabilities lists which optional serve interfaces b implements.
func capabilities(b serve.Backend) [4]bool {
	_, tp := b.(serve.TracerProvider)
	_, ps := b.(serve.PromSource)
	_, hs := b.(serve.HistogramSource)
	_, cm := b.(serve.CacheMigrator)
	return [4]bool{tp, ps, hs, cm}
}

// traceBackend wraps b so each call records a span under layer. It
// fails on a capability set it cannot reproduce exactly.
func traceBackend(b serve.Backend, rec *recorder, layer string) (serve.Backend, error) {
	base := &tracedBackend{inner: b, rec: rec, layer: layer}
	switch capabilities(b) {
	case [4]bool{false, false, false, false}:
		return base, nil
	case [4]bool{false, false, false, true}:
		return migratingBackend{base, b.(serve.CacheMigrator)}, nil
	case [4]bool{true, true, true, true}:
		full := b.(interface {
			serve.TracerProvider
			serve.PromSource
			serve.HistogramSource
		})
		return fullBackend{migratingBackend{base, b.(serve.CacheMigrator)}, full}, nil
	}
	return nil, fmt.Errorf("trace %s: backend %T has an optional-interface set the decorators do not cover", layer, b)
}

// statsOracle is the optional oracle capability the fleet report reads.
type statsOracle interface {
	Stats() fleet.OracleStats
}

// tracedOracle records a "fleet.resolve" span around each Resolve and
// forwards Stats.
type tracedOracle struct {
	inner interface {
		fleet.Oracle
		statsOracle
	}
	rec *recorder
}

// Resolve records the call.
func (o tracedOracle) Resolve(ctx context.Context, keys []fleet.OpKey) ([]fleet.OperatingPoint, error) {
	s := o.rec.begin(spanFrom(ctx))
	out, err := o.inner.Resolve(ctx, keys)
	s.end("fleet.resolve")
	return out, err
}

// Stats forwards.
func (o tracedOracle) Stats() fleet.OracleStats { return o.inner.Stats() }

// tracedPolicy records a "sched.place.<policy>" span around each Place.
// Place carries no context, so the run that owns the policy sets parent
// before each simulation; one tracedPolicy serves one caller at a time.
type tracedPolicy struct {
	inner  sched.Policy
	rec    *recorder
	name   string
	parent uint64
}

// Name forwards.
func (p *tracedPolicy) Name() string { return p.inner.Name() }

// Place records the call.
func (p *tracedPolicy) Place(job sched.Job, cands []sched.Candidate, f sched.Fleet) int {
	s := p.rec.begin(p.parent)
	i := p.inner.Place(job, cands, f)
	s.end(p.name)
	return i
}

// tracedHorizonPolicy is a tracedPolicy over a sched.HorizonAware
// policy.
type tracedHorizonPolicy struct {
	*tracedPolicy
	ha sched.HorizonAware
}

// HorizonWindowS forwards.
func (p tracedHorizonPolicy) HorizonWindowS() float64 { return p.ha.HorizonWindowS() }

// tracePolicy wraps p so each Place records a span.
func tracePolicy(p sched.Policy, rec *recorder) (sched.Policy, *tracedPolicy) {
	tp := &tracedPolicy{inner: p, rec: rec, name: "sched.place." + p.Name()}
	if ha, ok := p.(sched.HorizonAware); ok {
		return tracedHorizonPolicy{tp, ha}, tp
	}
	return tp, tp
}
