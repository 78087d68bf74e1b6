// Package serve turns the reproduction's §V input-dependent power
// model into an always-on prediction service: the layer between the
// physics core (kernels → activity → power) and network traffic.
//
// A request names a device preset, a datatype, an input-pattern DSL
// string and a GEMM size; the response is the fitted predictor's power
// estimate next to the full simulator's ground truth. Three mechanisms
// make the path cheap enough to serve:
//
//   - a predictor registry that lazily trains one power.Predictor per
//     (device, dtype) from a reduced experiment sweep
//     (experiments.TrainingSamples) and then reuses it,
//   - an LRU cache keyed by (device, dtype, canonical pattern, size)
//     so repeated queries skip the GEMM-simulation hot path entirely,
//   - a sharded worker pool (one worker per GOMAXPROCS by default)
//     that serializes identical keys on one shard, so a thundering
//     herd of equal requests costs one simulation.
//
// The package is layered transport-free core first: Core owns cache,
// pool and registry and implements Backend; Handler is the HTTP
// adapter over any Backend — a single-node Core in cmd/powerserve, a
// whole internal/cluster ring in cmd/powerrouter, both through the
// same endpoints. Cache hit-rate, queue depth, in-flight requests and
// simulation counts are exported through an obs.MetricSet;
// examples/loadgen drives the service.
package serve

import (
	"fmt"
	"runtime"

	"repro/internal/activity"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/power"
)

// Request defaults and limits.
const (
	DefaultDevice  = "A100-PCIe-40GB"
	DefaultDType   = "FP16"
	DefaultPattern = "gaussian(default)"
	DefaultSize    = 256
	// DefaultMaxSize is the largest GEMM dimension a Core accepts
	// unless Config.MaxSize says otherwise.
	DefaultMaxSize = 512
)

// Config parameterizes a Core. The zero value serves with sensible
// defaults.
type Config struct {
	// CacheSize bounds the prediction LRU (default 4096 entries).
	CacheSize int
	// Shards is the worker-pool width (default GOMAXPROCS).
	Shards int
	// QueueDepth is the per-shard task queue capacity (default 256).
	QueueDepth int
	// MaxSize rejects GEMM sizes above this bound — simulation cost
	// grows as size³ and a service must not let one request buy
	// unbounded compute (default DefaultMaxSize).
	MaxSize int
	// SampleOutputs bounds the sampled activity terms per simulation
	// (default 128, the training sweep's fidelity).
	SampleOutputs int
	// Training is the reduced sweep used to fit predictors lazily
	// (zero value = experiments.DefaultTraining).
	Training experiments.TrainingConfig
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxSize <= 0 {
		c.MaxSize = DefaultMaxSize
	}
	if c.SampleOutputs <= 0 {
		c.SampleOutputs = 128
	}
	return c
}

// PredictRequest asks for the power of one GEMM configuration. Empty
// fields take the Default* values above.
type PredictRequest struct {
	// Device is a preset name (device.Names).
	Device string `json:"device,omitempty"`
	// DType is a datatype name ("FP32", "FP16", "FP16-T", "INT8",
	// "BF16-T").
	DType string `json:"dtype,omitempty"`
	// Pattern is a §V input-pattern DSL pipeline.
	Pattern string `json:"pattern,omitempty"`
	// Size is the square GEMM dimension.
	Size int `json:"size,omitempty"`
}

// PredictResponse reports the fitted model's estimate next to the
// simulator's ground truth for the same configuration.
type PredictResponse struct {
	Device  string `json:"device"`
	DType   string `json:"dtype"`
	Pattern string `json:"pattern"` // canonical form
	Size    int    `json:"size"`

	// PredictedW is the §V linear model's estimate; SimulatedW is the
	// full activity-based simulation it was trained against.
	PredictedW float64 `json:"predicted_w"`
	SimulatedW float64 `json:"simulated_w"`
	ResidualW  float64 `json:"residual_w"`
	// TrainR2 is the serving predictor's in-sample R².
	TrainR2 float64 `json:"train_r2"`

	IterTimeS      float64 `json:"iter_time_s"`
	EnergyPerIterJ float64 `json:"energy_per_iter_j"`
	BusyFrac       float64 `json:"busy_frac"`
	Throttled      bool    `json:"throttled"`

	// Features is the §V feature vector the predictor consumed.
	Features power.FeatureVector `json:"features"`
	// Cached reports that this response came from the LRU, not a fresh
	// simulation.
	Cached bool `json:"cached"`
	// Degraded reports that a router answered this request from its
	// local fallback core because no ring shard was reachable for the
	// key. The value is as correct as any shard's (the computation is
	// deterministic), but it was not served by the key's owner — cache
	// warmth and coalescing accounting lived and died with this
	// response. Single-node and healthy-ring responses omit it.
	Degraded bool `json:"degraded,omitempty"`

	// gen records which predictor generation produced PredictedW; a
	// cached response whose generation no longer matches the registry
	// was computed against a retrained-away model and is recomputed
	// instead of served. This closes the race where an in-flight
	// prediction writes its result back after /train purged the cache.
	gen uint64
}

// TrainRequest forces a fresh predictor fit for one (device, dtype),
// optionally with a custom sweep.
type TrainRequest struct {
	Device string `json:"device,omitempty"`
	DType  string `json:"dtype,omitempty"`
	// Sizes and Patterns override the sweep corpus when non-empty.
	Sizes    []int    `json:"sizes,omitempty"`
	Patterns []string `json:"patterns,omitempty"`
	// Seed overrides the sweep's input seed when non-zero.
	Seed uint64 `json:"seed,omitempty"`
}

// TrainResponse reports the fitted model.
type TrainResponse struct {
	Device string `json:"device"`
	DType  string `json:"dtype"`
	// WeightsPJ are the fitted coefficients: [0] is the static power
	// estimate in watts, [1..6] per-event energies in picojoules.
	WeightsPJ [power.NumFeatures]float64 `json:"weights_pj"`
	R2        float64                    `json:"r2"`
	Samples   int                        `json:"samples"`
	// Purged is the number of cached predictions invalidated by the
	// new model.
	Purged int `json:"purged"`
}

// RequestError marks a client-side validation failure (HTTP 400).
type RequestError struct{ msg string }

// Error returns the validation failure message.
func (e *RequestError) Error() string { return e.msg }

// BadRequestf builds a RequestError. It is exported so the cluster
// router can reject a request it refuses to forward (empty batch,
// oversized batch, invalid item) with byte-identical wording and the
// same HTTP 400 mapping a single node would use.
func BadRequestf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

func badRequestf(format string, args ...any) error {
	return BadRequestf(format, args...)
}

// Simulate runs the deterministic measurement chain a /predict miss
// executes: pattern-filled size² A and B (distinct streams derived
// from the canonical pattern name, per §III), then core.RunChain with
// Bᵀ storage. Exported so tests and clients can reproduce served
// numbers bit-for-bit.
func Simulate(dev *device.Device, dt matrix.DType, pat patterns.Pattern, size, sampleOutputs int) (*activity.Report, *power.Result, error) {
	a, b := core.Operands(dt, size, pat, 0x5E12FE, "serve/"+pat.Name)
	ch, err := core.RunChain(dev, dt, a, b, core.ChainSpec{TransposeB: true, SampleOutputs: sampleOutputs})
	if err != nil {
		return nil, nil, err
	}
	return ch.Activity, ch.Power, nil
}
