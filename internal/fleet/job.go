package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/rng"
)

// Job is one GEMM workload item in a fleet trace: a kernel
// configuration, how many iterations of it to run, and when it arrives
// at the scheduler.
type Job struct {
	// ID identifies the job in reports; trace loading assigns
	// "job<index>" when empty.
	ID string `json:"id,omitempty"`
	// Device optionally pins the job to one device model
	// (a preset name from device.Names). Empty means the scheduler may
	// place it on any fleet device.
	Device string `json:"device,omitempty"`
	// DType is the datatype setup name ("FP32", "FP16", "FP16-T",
	// "INT8", "BF16-T").
	DType string `json:"dtype"`
	// Pattern is the §V input-pattern DSL describing the job's data.
	Pattern string `json:"pattern"`
	// Size is the square GEMM dimension.
	Size int `json:"size"`
	// ArrivalS is when the job enters the queue, in seconds from
	// simulation start.
	ArrivalS float64 `json:"arrival_s"`
	// Iterations is the GEMM loop length (how long the job holds its
	// device).
	Iterations int `json:"iterations"`

	// dt and key are filled by normalize.
	dt  matrix.DType
	key jobSpec
}

// jobSpec is the device-independent part of a prediction key: every
// job with the same spec on the same device model shares one operating
// point, which is what the batched prediction path coalesces on.
type jobSpec struct {
	dtype   matrix.DType
	pattern string // canonical DSL form
	size    int
}

// Trace is an ordered GEMM job stream. The zero value is empty; build
// one from JSON with ReadTrace or synthetically with Synthetic.
type Trace struct {
	Jobs []Job `json:"jobs"`
}

// normalizeJob validates one job in place: dtype parsed, pattern
// canonicalized, bounds checked, prediction key filled. Both trace
// loading and live HTTP admission funnel through it, so a job the
// controller accepted is exactly a job a replayed trace accepts.
func normalizeJob(j *Job) error { return normalizeJobWith(j, patterns.Canonicalize) }

// normalizeJobWith is normalizeJob with the pattern canonicalizer
// supplied, so a trace can canonicalize each distinct spelling once.
func normalizeJobWith(j *Job, canonicalize func(string) (string, error)) error {
	dt, ok := matrix.ParseDType(j.DType)
	if !ok {
		return fmt.Errorf("fleet: job %s: unknown dtype %q", j.ID, j.DType)
	}
	j.dt = dt
	canon, err := canonicalize(j.Pattern)
	if err != nil {
		return fmt.Errorf("fleet: job %s: %w", j.ID, err)
	}
	j.Pattern = canon
	if j.Size < 8 {
		return fmt.Errorf("fleet: job %s: size %d below minimum 8", j.ID, j.Size)
	}
	if j.Iterations <= 0 {
		return fmt.Errorf("fleet: job %s: iterations must be positive", j.ID)
	}
	if j.ArrivalS < 0 || math.IsNaN(j.ArrivalS) {
		return fmt.Errorf("fleet: job %s: bad arrival time %v", j.ID, j.ArrivalS)
	}
	j.key = jobSpec{dtype: dt, pattern: canon, size: j.Size}
	return nil
}

// normalize validates every job, canonicalizes patterns, fills default
// IDs and sorts by (arrival, ID) so scheduling order is deterministic
// regardless of the order jobs were listed in. A trace repeats a few
// pattern spellings many times and canonicalizing one is a full parse,
// so each distinct spelling is parsed once.
func (t *Trace) normalize() error {
	canons := make(map[string]string)
	canonicalize := func(pattern string) (string, error) {
		if canon, ok := canons[pattern]; ok {
			return canon, nil
		}
		canon, err := patterns.Canonicalize(pattern)
		if err == nil {
			canons[pattern] = canon
		}
		return canon, err
	}
	for i := range t.Jobs {
		j := &t.Jobs[i]
		if j.ID == "" {
			j.ID = fmt.Sprintf("job%d", i)
		}
		if err := normalizeJobWith(j, canonicalize); err != nil {
			return err
		}
	}
	sort.SliceStable(t.Jobs, func(a, b int) bool {
		if t.Jobs[a].ArrivalS != t.Jobs[b].ArrivalS {
			return t.Jobs[a].ArrivalS < t.Jobs[b].ArrivalS
		}
		return t.Jobs[a].ID < t.Jobs[b].ID
	})
	return nil
}

// ReadTrace decodes a JSON trace ({"jobs": [...]}) and validates it.
func ReadTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("fleet: trace: %w", err)
	}
	if len(t.Jobs) == 0 {
		return nil, fmt.Errorf("fleet: trace has no jobs")
	}
	if err := t.normalize(); err != nil {
		return nil, err
	}
	return &t, nil
}

// WriteTrace encodes the trace as indented JSON ({"jobs": [...]}), the
// exact shape ReadTrace accepts — the recorder half of the trace
// replay path. A synthetic run dumped with WriteTrace (cmd/fleetsim
// -dump-trace) replays byte-identically: normalization is idempotent,
// so ReadTrace(WriteTrace(t)) reproduces t exactly.
func (t *Trace) WriteTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("fleet: write trace: %w", err)
	}
	return nil
}

// SyntheticConfig parameterizes a generated workload. Zero-valued
// fields take the defaults noted on each.
type SyntheticConfig struct {
	// Jobs is the number of jobs to generate (default 256).
	Jobs int
	// RatePerS is the mean arrival rate; inter-arrival gaps are
	// exponential, so the stream is a seeded Poisson process
	// (default 200 jobs/s).
	RatePerS float64
	// Seed drives every random choice; equal seeds generate equal
	// traces.
	Seed uint64
	// DTypes is the datatype mix (default FP16, FP16-T, INT8).
	DTypes []string
	// Patterns is the input-pattern mix (default: the paper's main
	// axes — dense Gaussian, constant, sparse, sorted, zeroed-LSB).
	Patterns []string
	// Sizes is the GEMM dimension mix (default 64, 128, 256).
	Sizes []int
	// MinIterations/MaxIterations bound the per-job loop length drawn
	// log-uniformly (defaults 2000 and 20000, roughly the paper's
	// 10k/20k measurement loops).
	MinIterations, MaxIterations int
}

func (c SyntheticConfig) withDefaults() SyntheticConfig {
	if c.Jobs <= 0 {
		c.Jobs = 256
	}
	if c.RatePerS <= 0 {
		c.RatePerS = 200
	}
	if len(c.DTypes) == 0 {
		c.DTypes = []string{"FP16", "FP16-T", "INT8"}
	}
	if len(c.Patterns) == 0 {
		c.Patterns = []string{
			"gaussian(default)",
			"gaussian(mean=500, std=1)",
			"constant(7)",
			"gaussian(default) | sparsify(50%)",
			"gaussian(default) | sort(rows, 100%)",
			"gaussian(default) | zerolsb(8)",
		}
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{64, 128, 256}
	}
	if c.MinIterations <= 0 {
		c.MinIterations = 2000
	}
	if c.MaxIterations < c.MinIterations {
		c.MaxIterations = 10 * c.MinIterations
	}
	return c
}

// Synthetic generates a deterministic workload: Poisson arrivals over
// a uniform mix of the configured dtypes, patterns and sizes, with
// log-uniform iteration counts. Equal configs produce equal traces.
func Synthetic(cfg SyntheticConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	src := rng.Derive(cfg.Seed, "fleet/synthetic")
	t := &Trace{Jobs: make([]Job, cfg.Jobs)}
	clock := 0.0
	logMin := math.Log(float64(cfg.MinIterations))
	logMax := math.Log(float64(cfg.MaxIterations))
	for i := range t.Jobs {
		// Exponential inter-arrival gap; 1-u keeps the argument of Log
		// in (0, 1].
		clock += -math.Log(1-src.Float64()) / cfg.RatePerS
		iters := int(math.Exp(logMin + (logMax-logMin)*src.Float64()))
		t.Jobs[i] = Job{
			ID:         fmt.Sprintf("job%04d", i),
			DType:      cfg.DTypes[src.Intn(len(cfg.DTypes))],
			Pattern:    cfg.Patterns[src.Intn(len(cfg.Patterns))],
			Size:       cfg.Sizes[src.Intn(len(cfg.Sizes))],
			ArrivalS:   clock,
			Iterations: iters,
		}
	}
	if err := t.normalize(); err != nil {
		return nil, err
	}
	return t, nil
}
