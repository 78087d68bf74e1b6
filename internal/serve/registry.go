package serve

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/power"
)

// registry lazily trains and caches one §V power predictor per
// (device preset, datatype), so the first /predict for a combination
// pays the reduced training sweep and every later request reuses the
// fitted model.
type registry struct {
	cfg       experiments.TrainingConfig
	trainings *obs.Counter

	mu      sync.Mutex
	entries map[regKey]*regEntry
	// nextGen numbers predictor entries; cached predictions record the
	// generation they were computed with so a retrain invalidates them
	// even if they are written back after the retrain's cache purge.
	nextGen uint64
}

type regKey struct {
	device string
	dtype  matrix.DType
}

// regEntry is one predictor slot. ready is closed once the training
// attempt (successful or not) has finished; the fields below it are
// immutable afterwards.
type regEntry struct {
	ready   chan struct{}
	gen     uint64
	pred    *power.Predictor
	r2      float64
	samples int
	err     error
}

func newRegistry(cfg experiments.TrainingConfig, trainings *obs.Counter) *registry {
	if trainings == nil {
		trainings = &obs.Counter{}
	}
	return &registry{
		cfg:       cfg,
		trainings: trainings,
		entries:   make(map[regKey]*regEntry),
	}
}

// Get returns the predictor for (dev, dt), training it on first use.
// Concurrent callers for the same combination share one training run;
// training failures are cached too (the simulator is deterministic, so
// retrying cannot heal them — only /train with a new corpus can).
func (r *registry) Get(ctx context.Context, dev *device.Device, dt matrix.DType) (*regEntry, error) {
	k := regKey{device: dev.Name, dtype: dt}
	r.mu.Lock()
	e, ok := r.entries[k]
	if !ok {
		r.nextGen++
		e = &regEntry{ready: make(chan struct{}), gen: r.nextGen}
		r.entries[k] = e
		r.mu.Unlock()
		e.pred, e.r2, e.samples, e.err = experiments.TrainPredictor(dev, dt, r.cfg)
		r.trainings.Inc()
		close(e.ready)
	} else {
		r.mu.Unlock()
	}
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if e.err != nil {
		return nil, fmt.Errorf("serve: predictor for %s/%v: %w", dev.Name, dt, e.err)
	}
	return e, nil
}

// Retrain runs a fresh sweep with the given configuration and swaps
// the entry in, returning the new predictor entry.
func (r *registry) Retrain(dev *device.Device, dt matrix.DType, cfg experiments.TrainingConfig) (*regEntry, error) {
	pred, r2, n, err := experiments.TrainPredictor(dev, dt, cfg)
	r.trainings.Inc()
	if err != nil {
		return nil, err
	}
	e := &regEntry{ready: make(chan struct{}), pred: pred, r2: r2, samples: n}
	close(e.ready)
	r.mu.Lock()
	r.nextGen++
	e.gen = r.nextGen
	r.entries[regKey{device: dev.Name, dtype: dt}] = e
	r.mu.Unlock()
	return e, nil
}

// currentGen returns the generation of the active entry for the
// combination, or 0 when none exists yet.
func (r *registry) currentGen(devName string, dt matrix.DType) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[regKey{device: devName, dtype: dt}]; ok {
		return e.gen
	}
	return 0
}
