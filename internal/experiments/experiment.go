// Package experiments reproduces the paper's evaluation (§III–§IV):
// every figure is an Experiment — a sweep of input patterns across the
// four datatype setups — executed by a parallel runner that follows the
// paper's methodology: same pattern for A and B from different seeds, B
// transposed unless the experiment says otherwise, C zeroed, results
// averaged over multiple seeds on one pinned VM instance, power sampled
// DCGM-style at 100 ms with the first 500 ms trimmed.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/activity"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Config holds the harness-wide experiment parameters.
type Config struct {
	Device *device.Device
	// Size is the square matrix dimension (paper: 2048; 512 for the
	// RTX 6000 in Fig. 7).
	Size int
	// DTypes are the datatype setups to sweep (paper: all four).
	DTypes []matrix.DType
	// Seeds is the number of independent repetitions (paper: 10).
	Seeds int
	// SampleOutputs bounds the sampled activity terms per run.
	SampleOutputs int
	// VMInstance pins the process-variation offset (§III).
	VMInstance uint64
	// Workers bounds runner parallelism; 0 means GOMAXPROCS.
	Workers int
	// Tile overrides the CUTLASS-style threadblock tile (zero value =
	// per-dtype default). Reduced-scale tests use smaller tiles so the
	// simulated device runs at realistic utilization.
	Tile kernels.TileConfig
}

// Default returns the paper's configuration: A100 PCIe, 2048², all four
// datatypes, 10 seeds.
func Default() Config {
	return Config{
		Device:        device.A100PCIe(),
		Size:          2048,
		DTypes:        append([]matrix.DType(nil), matrix.DTypes...),
		Seeds:         10,
		SampleOutputs: 256,
		VMInstance:    1,
	}
}

// Quick returns a reduced configuration.
// Only tests call it: TestRaggedSizesRunEndToEnd, the quickResult
// helper of the figure tests, and the ablation tests.
func Quick() Config {
	cfg := Default()
	cfg.Size = 192
	cfg.Seeds = 3
	cfg.SampleOutputs = 96
	return cfg
}

func (c Config) withDefaults() Config {
	if c.Device == nil {
		c.Device = device.A100PCIe()
	}
	if c.Size <= 0 {
		c.Size = 2048
	}
	if len(c.DTypes) == 0 {
		c.DTypes = append([]matrix.DType(nil), matrix.DTypes...)
	}
	if c.Seeds <= 0 {
		c.Seeds = 10
	}
	if c.SampleOutputs <= 0 {
		c.SampleOutputs = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Point is one sweep coordinate of an experiment.
type Point struct {
	// Label names the coordinate in tables (e.g. "50%", "std=210").
	Label string
	// X is the numeric coordinate for trend analysis.
	X float64
	// Pattern builds the input pattern for a datatype (the paper uses
	// σ=210 for FP and σ=25 for INT8, so patterns are dtype-aware).
	Pattern func(dt matrix.DType) patterns.Pattern
	// UntransposedB consumes B as generated instead of the paper's
	// default Bᵀ; Fig. 5a sets it.
	UntransposedB bool
}

// transposeB reports whether the point consumes Bᵀ.
func (p Point) transposeB() bool { return !p.UntransposedB }

// Experiment is one figure panel of the paper.
type Experiment struct {
	// ID names the panel's row in the Figures table, e.g. "fig5b".
	ID string
	// Title is the paper's panel description.
	Title string
	// Takeaway is the paper's numbered finding exercised by the panel.
	Takeaway string
	// XLabel describes Point.X.
	XLabel string
	Points []Point
}

// Cell is the aggregated measurement for one (datatype, point).
type Cell struct {
	Label string
	X     float64

	PowerW    float64 // mean over seeds (paper's reported quantity)
	PowerErrW float64 // standard error over seeds

	IterTimeS      float64
	IterTimeErrS   float64
	EnergyPerIterJ float64

	MeanAlignment float64 // Fig. 8 x-axis (bit alignment)
	MeanHamming   float64 // Fig. 8 x-axis (Hamming weight of A)

	BusyFrac  float64
	Throttled bool
}

// FigureResult is the full reproduction of one figure panel.
type FigureResult struct {
	Experiment Experiment
	Config     Config
	// Series maps each datatype to its per-point cells (same order as
	// Experiment.Points).
	Series map[matrix.DType][]Cell
}

// runOutcome is one (dtype, point, seed) measurement.
type runOutcome struct {
	powerW    float64
	iterTimeS float64
	energyJ   float64
	alignment float64
	hamming   float64
	busyFrac  float64
	throttled bool
}

// iterationsFor mirrors the paper's §III counts: 20k iterations for
// FP16-T, 10k for the other datatypes.
func iterationsFor(dt matrix.DType) int {
	if dt == matrix.FP16T {
		return 20000
	}
	return 10000
}

// runner is one Run's shared state: the per-Run operand cache and the
// outcome of every (datatype, point, seed) cell, which jobs write at
// disjoint indices.
type runner struct {
	cfg   Config
	exp   Experiment
	cache *baseCache
	// classes lists, per base name, the encoding classes that generate
	// it, ordered: the multi-class generation builds all of them.
	classes map[string][]matrix.DType
	// scanned holds the base names whose multi-class generation also
	// builds row-stream statistics: those some point reads directly,
	// without a prefix or through one that changes no bit
	// (prefixStage). A base read only through other prefixes never
	// reads its own statistics; a later reader would scan it.
	scanned map[string]bool

	outs []runOutcome
	errs []error
}

// cell returns the index of a (datatype, point, seed) outcome.
func (r *runner) cell(di, pi, seed int) int {
	return (di*len(r.exp.Points)+pi)*r.cfg.Seeds + seed
}

// dtypeGroups partitions the indices of dts by the encoding class and
// name of the point's pattern, each group ascending and the groups in
// order of their first index. A group's datatypes get bit-identical
// operands: FP16 and FP16-T differ in arithmetic, not in storage.
func dtypeGroups(pt Point, dts []matrix.DType) [][]int {
	type key struct {
		class matrix.DType
		name  string
	}
	var groups [][]int
	at := map[key]int{}
	for di, dt := range dts {
		k := key{encClass(dt), pt.Pattern(dt).Name}
		gi, ok := at[k]
		if !ok {
			gi = len(groups)
			at[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], di)
	}
	return groups
}

// runGroup measures one point and seed for a group of datatypes with
// bit-identical operands. Base matrices come from the per-Run cache:
// the generation streams depend on (experiment, seed, side) but not on
// the point or the datatype, so every point's transform variant
// derives from the same underlying generation; A and B always differ
// (§III). The job builds A and B and their statistics once; when the
// transform chain is untracked and the group holds several datatypes,
// it scans them once too. The chain and the DCGM-style measurement
// then run per datatype, on a header retagged to it. When the point
// consumes Bᵀ (the paper's default), the generated matrix is handed to
// the kernel as transposed storage instead of materializing the
// transpose — bit-identical results, no transpose pass, and the
// operand's column-stream statistics are the base's row-stream
// statistics.
func (r *runner) runGroup(pi, seed int, dis []int) {
	pt := r.exp.Points[pi]
	dt0 := r.cfg.DTypes[dis[0]]
	pat := pt.Pattern(dt0)
	base := rng.Derive(uint64(seed)+1, r.exp.ID)
	seedA := base.Uint64()
	seedB := base.Uint64()

	transposeB := pt.transposeB()
	a, aStats, ownA := r.materialize(pat, dt0, "A", seed, seedA, false)
	g, bStats, ownB := r.materialize(pat, dt0, "B", seed, seedB, !transposeB)
	if len(dis) > 1 {
		// One rescan serves every chain of the group. Under transposed
		// storage B's column-stream profile is the stored rows' scan.
		if aStats == nil {
			aStats = activity.ScanA(a)
		}
		switch {
		case bStats != nil:
		case transposeB:
			bStats = activity.ScanA(g)
		default:
			bStats = activity.ScanB(g)
		}
	}
	spec := core.ChainSpec{
		TransposeB:    transposeB,
		Tile:          r.cfg.Tile,
		SampleOutputs: r.cfg.SampleOutputs,
		AStats:        aStats,
		BStats:        bStats,
	}
	// Decorrelate measurement noise across points: the generation
	// seeds are point-independent, so fold the point label in.
	noiseSeed := rng.Derive(seedA^seedB, pt.Label).Uint64()
	for _, di := range dis {
		dt := r.cfg.DTypes[di]
		i := r.cell(di, pi, seed)
		r.outs[i], r.errs[i] = measure(r.cfg, dt, retag(a, dt), retag(g, dt), spec, noiseSeed)
	}
	if ownA {
		operandPool.Put(a)
	}
	if ownB {
		operandPool.Put(g)
	}
}

// retag returns m under datatype dt: m itself, or a header sharing its
// words when another datatype of the encoding class built it.
func retag(m *matrix.Matrix, dt matrix.DType) *matrix.Matrix {
	if m.DType == dt {
		return m
	}
	return &matrix.Matrix{DType: dt, Rows: m.Rows, Cols: m.Cols, Bits: m.Bits}
}

// measure runs the measurement chain for one datatype and samples its
// power DCGM-style.
func measure(cfg Config, dt matrix.DType, a, b *matrix.Matrix, spec core.ChainSpec, noiseSeed uint64) (runOutcome, error) {
	ch, err := core.RunChain(cfg.Device, dt, a, b, spec)
	if err != nil {
		return runOutcome{}, err
	}
	rep, res := ch.Activity, ch.Power
	// Paper iteration counts, raised when the kernel is so fast (small
	// test sizes) that the run would not span enough 100 ms samples.
	iters := iterationsFor(dt)
	if rec := telemetry.RecommendedIterations(res); rec > iters {
		iters = rec
	}
	meas, err := telemetry.Measure(res, iters, telemetry.Config{
		VMInstance: cfg.VMInstance,
		Seed:       noiseSeed,
	})
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{
		powerW:    meas.AvgPowerW,
		iterTimeS: meas.IterTimeS,
		energyJ:   meas.EnergyPerIterJ,
		alignment: rep.MeanAlignment,
		hamming:   rep.MeanHammingA,
		busyFrac:  meas.BusyFrac,
		throttled: meas.Throttled,
	}, nil
}

// Run executes an experiment under the configuration and aggregates
// seeds into cells. One job per (point, seed, datatype group) is
// fanned out to Workers goroutines.
func Run(exp Experiment, cfg Config) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if len(exp.Points) == 0 {
		return nil, fmt.Errorf("experiments: %s has no points", exp.ID)
	}

	r, groups := newRunner(exp, cfg)
	// Jobs go out datatype-major: workers then build different points'
	// bases side by side, where point-major order would have one wait
	// on the other's multi-class generation of the same base.
	type job struct {
		pi, seed int
		dis      []int
	}
	var jobs []job
	for di := range cfg.DTypes {
		for pi := range exp.Points {
			for _, dis := range groups[pi] {
				if dis[0] != di {
					continue
				}
				for s := 0; s < cfg.Seeds; s++ {
					jobs = append(jobs, job{pi, s, dis})
				}
			}
		}
	}
	fanOut(len(jobs), cfg.Workers, func(idx int) {
		j := jobs[idx]
		r.runGroup(j.pi, j.seed, j.dis)
	})
	r.cache.release()

	fr := &FigureResult{Experiment: exp, Config: cfg, Series: map[matrix.DType][]Cell{}}
	for di, dt := range cfg.DTypes {
		cells := make([]Cell, len(exp.Points))
		for pi, pt := range exp.Points {
			var powers, times, energies, aligns, hams, busies []float64
			throttled := false
			for s := 0; s < cfg.Seeds; s++ {
				i := r.cell(di, pi, s)
				if err := r.errs[i]; err != nil {
					return nil, fmt.Errorf("experiments: %s %v point %q seed %d: %w",
						exp.ID, dt, pt.Label, s, err)
				}
				o := r.outs[i]
				powers = append(powers, o.powerW)
				times = append(times, o.iterTimeS)
				energies = append(energies, o.energyJ)
				aligns = append(aligns, o.alignment)
				hams = append(hams, o.hamming)
				busies = append(busies, o.busyFrac)
				throttled = throttled || o.throttled
			}
			cells[pi] = Cell{
				Label:          pt.Label,
				X:              pt.X,
				PowerW:         stats.Mean(powers),
				PowerErrW:      stats.StdErr(powers),
				IterTimeS:      stats.Mean(times),
				IterTimeErrS:   stats.StdErr(times),
				EnergyPerIterJ: stats.Mean(energies),
				MeanAlignment:  stats.Mean(aligns),
				MeanHamming:    stats.Mean(hams),
				BusyFrac:       stats.Mean(busies),
				Throttled:      throttled,
			}
		}
		fr.Series[dt] = cells
	}
	return fr, nil
}

// newRunner returns the shared state of a Run of exp under cfg (with
// its defaults applied), and each point's datatype groups.
func newRunner(exp Experiment, cfg Config) (*runner, [][][]int) {
	// Per-Run base-matrix cache, so transform variants across points
	// (and datatypes of the same encoding class) share one generation
	// and one run of each RNG-free prefix per (seed, side).
	r := &runner{
		cfg:     cfg,
		exp:     exp,
		cache:   newBaseCache(),
		classes: map[string][]matrix.DType{},
		scanned: map[string]bool{},
		outs:    make([]runOutcome, len(cfg.DTypes)*len(exp.Points)*cfg.Seeds),
		errs:    make([]error, len(cfg.DTypes)*len(exp.Points)*cfg.Seeds),
	}
	// A pattern with Rows generates its base for every encoding class
	// that uses the base name in one pass. The classes are ordered for
	// a deterministic generation layout.
	groups := make([][][]int, len(exp.Points))
	for pi, pt := range exp.Points {
		groups[pi] = dtypeGroups(pt, cfg.DTypes)
		for _, dis := range groups[pi] {
			dt := cfg.DTypes[dis[0]]
			pat := pt.Pattern(dt)
			name := pat.BaseName
			if cl := encClass(dt); !slices.Contains(r.classes[name], cl) {
				r.classes[name] = append(r.classes[name], cl)
			}
			if at := (baseKey{stageName: stageName{base: name}}); r.prefixStage(pat, at) == at {
				r.scanned[name] = true
			}
		}
	}
	for _, classes := range r.classes {
		slices.Sort(classes)
	}
	return r, groups
}

// fanOut calls run(idx) for every idx in [0, n) on at most workers
// goroutines, handing out indices in ascending order. Callers store
// results by index, so their order never depends on scheduling.
func fanOut(n, workers int, run func(idx int)) {
	if workers > n {
		workers = n
	}
	// One buffered slot per worker: each can take its next index
	// without waiting for the sender to be scheduled.
	idxCh := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				run(idx)
			}
		}()
	}
	for idx := 0; idx < n; idx++ {
		idxCh <- idx
	}
	close(idxCh)
	wg.Wait()
}

// PowerSwing returns the relative spread (max-min)/max of mean power
// across a series, the quantity behind the paper's "almost 40%"
// headline.
func PowerSwing(cells []Cell) float64 {
	if len(cells) == 0 {
		return 0
	}
	lo, hi := cells[0].PowerW, cells[0].PowerW
	for _, c := range cells[1:] {
		if c.PowerW < lo {
			lo = c.PowerW
		}
		if c.PowerW > hi {
			hi = c.PowerW
		}
	}
	if hi == 0 {
		return 0
	}
	return (hi - lo) / hi
}
