package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/serve"
)

// OpKey names one operating point: a device model running one job
// spec. It is the same identity the serving layer caches on, so every
// oracle implementation coalesces duplicate keys into one lookup.
type OpKey struct {
	// Device is a preset name (device.Names).
	Device string
	// DType is the datatype setup name in canonical spelling.
	DType string
	// Pattern is the canonical §V DSL form.
	Pattern string
	// Size is the square GEMM dimension.
	Size int
}

// OperatingPoint is the steady-state behaviour of one (device model,
// job spec) pair: everything the fleet simulator needs to integrate a
// job over time.
type OperatingPoint struct {
	// IterTimeS is the host-visible time of one GEMM iteration at full
	// clocks (fleet-level throttling stretches it).
	IterTimeS float64
	// PowerW is the sustained board power while the job runs,
	// including the device's own TDP/thermal steady-state governor.
	PowerW float64
	// PredictedW is the §V linear model's estimate of PowerW; for the
	// model oracle (no fitted predictor) it equals PowerW.
	PredictedW float64
	// BusyFrac is the kernel duty cycle over launch gaps.
	BusyFrac float64
	// Throttled reports that the device's own governor (TDP or
	// thermal steady state) already limits this configuration before
	// any fleet-level cap applies.
	Throttled bool
}

// Oracle resolves operating points for a set of keys. Resolve must
// answer keys[i] in out[i]; implementations are expected to coalesce
// duplicate keys and cache across calls, so that a fleet tick asking
// about thousands of queued jobs costs one simulation per distinct
// never-seen key.
type Oracle interface {
	Resolve(ctx context.Context, keys []OpKey) ([]OperatingPoint, error)
}

// OracleStats counts the work an oracle performed, for reports.
type OracleStats struct {
	// Lookups is the number of keys handed to Resolve, duplicates
	// included.
	Lookups int64 `json:"lookups"`
	// Distinct is the number of unique keys ever resolved — the
	// number of simulations actually paid for.
	Distinct int64 `json:"distinct"`
}

// statsOracle is implemented by the built-in oracles so reports can
// show the coalescing ratio.
type statsOracle interface {
	Stats() OracleStats
}

// ModelOracle answers from the simulation chain directly
// (serve.Simulate), memoizing every distinct key for the lifetime of
// the oracle. It is the offline path: bit-identical to what a serving
// instance computes for the same key, with no predictor fit.
type ModelOracle struct {
	// SampleOutputs bounds the sampled activity terms per simulation
	// (0 = the serving default, 128).
	SampleOutputs int

	mu      sync.Mutex
	memo    map[OpKey]OperatingPoint
	lookups int64
}

// NewModelOracle returns a ModelOracle with the serving layer's
// default simulation fidelity.
func NewModelOracle() *ModelOracle { return &ModelOracle{SampleOutputs: 128} }

// Resolve simulates each distinct key once and serves repeats from the
// memo. Distinct keys within one call are resolved in deterministic
// (sorted) order so floating-point results never depend on batch
// composition.
func (o *ModelOracle) Resolve(ctx context.Context, keys []OpKey) ([]OperatingPoint, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.memo == nil {
		o.memo = make(map[OpKey]OperatingPoint)
	}
	o.lookups += int64(len(keys))

	// A warm memo answers every key, so the missing set and its order
	// are built only once some key is missing.
	var missing map[OpKey]bool
	for _, k := range keys {
		if _, ok := o.memo[k]; !ok {
			if missing == nil {
				missing = make(map[OpKey]bool)
			}
			missing[k] = true
		}
	}
	if missing != nil {
		order := make([]OpKey, 0, len(missing))
		for k := range missing {
			order = append(order, k)
		}
		sort.Slice(order, func(a, b int) bool { return order[a].less(order[b]) })
		for _, k := range order {
			op, err := simulateKey(k, o.SampleOutputs)
			if err != nil {
				return nil, err
			}
			o.memo[k] = op
		}
	}

	out := make([]OperatingPoint, len(keys))
	for i, k := range keys {
		out[i] = o.memo[k]
	}
	return out, nil
}

// Stats reports lookup and distinct-key counts.
func (o *ModelOracle) Stats() OracleStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return OracleStats{Lookups: o.lookups, Distinct: int64(len(o.memo))}
}

func (k OpKey) less(other OpKey) bool {
	if k.Device != other.Device {
		return k.Device < other.Device
	}
	if k.DType != other.DType {
		return k.DType < other.DType
	}
	if k.Pattern != other.Pattern {
		return k.Pattern < other.Pattern
	}
	return k.Size < other.Size
}

// simulateKey runs the serving layer's measurement chain for one key.
func simulateKey(k OpKey, sampleOutputs int) (OperatingPoint, error) {
	dev, dt, pat, err := resolveKeyParts(k)
	if err != nil {
		return OperatingPoint{}, err
	}
	if sampleOutputs <= 0 {
		sampleOutputs = 128
	}
	_, res, err := serve.Simulate(dev, dt, pat, k.Size, sampleOutputs)
	if err != nil {
		return OperatingPoint{}, err
	}
	return OperatingPoint{
		IterTimeS:  res.IterTimeS,
		PowerW:     res.AvgPowerW,
		PredictedW: res.AvgPowerW,
		BusyFrac:   res.BusyFrac,
		Throttled:  res.Throttled,
	}, nil
}

// BackendOracle answers through a serving backend's batched prediction
// path: one PredictBatch call per Resolve, one simulation per distinct
// never-cached key (the backend's cache carries state across calls).
// The backend may be an in-process serve.Core, a cluster ring, or a
// remote powerserve or powerrouter behind cluster.NewHTTPBackend.
// PredictedW comes from the backend's fitted §V model. The returned
// oracle reports its lookup counts in fleet reports.
func BackendOracle(b serve.Backend) Oracle {
	return &backendOracle{backend: b, distinct: make(map[OpKey]bool)}
}

type backendOracle struct {
	backend serve.Backend

	mu       sync.Mutex
	lookups  int64
	distinct map[OpKey]bool
}

// Resolve maps the keys onto one PredictBatch call.
func (o *backendOracle) Resolve(ctx context.Context, keys []OpKey) ([]OperatingPoint, error) {
	batch := serve.BatchRequest{Requests: make([]serve.PredictRequest, len(keys))}
	for i, k := range keys {
		batch.Requests[i] = serve.PredictRequest{Device: k.Device, DType: k.DType, Pattern: k.Pattern, Size: k.Size}
	}
	resp, err := o.backend.PredictBatch(ctx, batch)
	if err != nil {
		return nil, err
	}
	out, err := batchToOps(keys, resp)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.lookups += int64(len(keys))
	for _, k := range keys {
		o.distinct[k] = true
	}
	o.mu.Unlock()
	return out, nil
}

// Stats reports lookup and distinct-key counts.
func (o *backendOracle) Stats() OracleStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return OracleStats{Lookups: o.lookups, Distinct: int64(len(o.distinct))}
}

// batchToOps converts a batch response back into operating points,
// failing on the first item-level error (a fleet cannot schedule a job
// it has no operating point for).
func batchToOps(keys []OpKey, resp *serve.BatchResponse) ([]OperatingPoint, error) {
	if len(resp.Items) != len(keys) {
		return nil, fmt.Errorf("fleet: batch returned %d items for %d keys", len(resp.Items), len(keys))
	}
	out := make([]OperatingPoint, len(keys))
	for i, item := range resp.Items {
		if item.Response == nil {
			return nil, fmt.Errorf("fleet: key %+v: %s", keys[i], item.Error)
		}
		r := item.Response
		out[i] = OperatingPoint{
			IterTimeS:  r.IterTimeS,
			PowerW:     r.SimulatedW,
			PredictedW: r.PredictedW,
			BusyFrac:   r.BusyFrac,
			Throttled:  r.Throttled,
		}
	}
	return out, nil
}

// resolveKeyParts turns an OpKey into executable simulator inputs.
func resolveKeyParts(k OpKey) (*device.Device, matrix.DType, patterns.Pattern, error) {
	dev := device.ByName(k.Device)
	if dev == nil {
		return nil, 0, patterns.Pattern{}, fmt.Errorf("fleet: unknown device %q (have %v)", k.Device, device.Names())
	}
	dt, ok := matrix.ParseDType(k.DType)
	if !ok {
		return nil, 0, patterns.Pattern{}, fmt.Errorf("fleet: unknown dtype %q", k.DType)
	}
	pat, err := patterns.Parse(k.Pattern)
	if err != nil {
		return nil, 0, patterns.Pattern{}, fmt.Errorf("fleet: bad pattern: %w", err)
	}
	return dev, dt, pat, nil
}
