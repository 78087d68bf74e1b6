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
	"sort"
	"sync"

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

// Quick returns a reduced configuration for tests and fast sweeps.
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
	// TransposeB overrides the paper's default of consuming Bᵀ;
	// Fig. 5a sets this to false.
	TransposeB *bool
}

func (p Point) transposeB() bool {
	if p.TransposeB == nil {
		return true
	}
	return *p.TransposeB
}

// Experiment is one figure panel of the paper.
type Experiment struct {
	// ID matches the DESIGN.md index, e.g. "fig5b".
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

// runOne executes a single measurement. Base matrices come from the
// per-Run cache: the generation streams depend on (experiment, seed,
// side) but not on the point, so every point's transform variant
// derives from the same underlying generation; A and B always differ
// (§III). When the point consumes Bᵀ (the paper's default), the
// generated matrix is handed to the kernel as transposed storage
// instead of materializing the transpose — bit-identical results,
// no transpose pass, and the operand's column-stream statistics are
// the base's row-stream statistics.
func runOne(cfg Config, exp Experiment, pt Point, dt matrix.DType, seed int,
	cache *baseCache, uses map[stageName]int, streamUses map[string]int,
	streamClasses map[string][]matrix.DType) (runOutcome, error) {
	pat := pt.Pattern(dt)
	base := rng.Derive(uint64(seed)+1, exp.ID)
	seedA := base.Uint64()
	seedB := base.Uint64()

	transposeB := pt.transposeB()
	a, aStats := materialize(cache, uses, streamUses, streamClasses, pat, dt, "A", seed, seedA, cfg.Size, false)
	g, bStats := materialize(cache, uses, streamUses, streamClasses, pat, dt, "B", seed, seedB, cfg.Size, !transposeB)

	ch, err := core.RunChain(cfg.Device, dt, a, g, core.ChainSpec{
		TransposeB:    transposeB,
		Tile:          cfg.Tile,
		SampleOutputs: cfg.SampleOutputs,
		AStats:        aStats,
		BStats:        bStats,
	})
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
		// Decorrelate measurement noise across points: the generation
		// seeds are point-independent, so fold the point label in.
		Seed: rng.Derive(seedA^seedB, pt.Label).Uint64(),
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
// seeds into cells. Runs are fanned out to Workers goroutines.
func Run(exp Experiment, cfg Config) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if len(exp.Points) == 0 {
		return nil, fmt.Errorf("experiments: %s has no points", exp.ID)
	}

	type job struct{ di, pi, seed int }
	type result struct {
		job
		out runOutcome
		err error
	}
	jobs := make([]job, 0, len(cfg.DTypes)*len(exp.Points)*cfg.Seeds)
	for di := range cfg.DTypes {
		for pi := range exp.Points {
			for s := 0; s < cfg.Seeds; s++ {
				jobs = append(jobs, job{di, pi, s})
			}
		}
	}

	// Per-Run base-matrix cache, so transform variants across points
	// (and datatypes of the same encoding class) share one generation
	// and one run of each RNG-free prefix per (seed, side). Refcounts
	// aggregate over the dtypes of a class.
	cache := newBaseCache()
	usesByClass := map[matrix.DType]map[stageName]int{}
	for _, dt := range cfg.DTypes {
		cl := encClass(dt)
		if usesByClass[cl] == nil {
			usesByClass[cl] = map[stageName]int{}
		}
		addUses(usesByClass[cl], exp, dt)
	}
	uses := make([]map[stageName]int, len(cfg.DTypes))
	for di, dt := range cfg.DTypes {
		uses[di] = usesByClass[encClass(dt)]
	}
	// Raw draw streams are shared across encoding classes: each class
	// that generates a given base name consumes the stream once. The
	// class list per base name drives the fused multi-class generation
	// (one pass draws and encodes every class); classes are ordered for
	// a deterministic generation layout.
	streamUses := map[string]int{}
	streamClasses := map[string][]matrix.DType{}
	for cl, classUses := range usesByClass {
		for st := range classUses {
			if st.prep == "" {
				streamUses[st.base]++
				streamClasses[st.base] = append(streamClasses[st.base], cl)
			}
		}
	}
	for _, classes := range streamClasses {
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	}

	results := make([]result, len(jobs))
	fanOut(len(jobs), cfg.Workers, func(idx int) {
		j := jobs[idx]
		out, err := runOne(cfg, exp, exp.Points[j.pi], cfg.DTypes[j.di], j.seed, cache, uses[j.di], streamUses, streamClasses)
		results[idx] = result{job: j, out: out, err: err}
	})

	fr := &FigureResult{Experiment: exp, Config: cfg, Series: map[matrix.DType][]Cell{}}
	for di, dt := range cfg.DTypes {
		cells := make([]Cell, len(exp.Points))
		for pi, pt := range exp.Points {
			var powers, times, energies, aligns, hams, busies []float64
			throttled := false
			for _, r := range results {
				if r.err != nil {
					return nil, fmt.Errorf("experiments: %s %v point %q seed %d: %w",
						exp.ID, cfg.DTypes[r.di], exp.Points[r.pi].Label, r.seed, r.err)
				}
				if r.di != di || r.pi != pi {
					continue
				}
				powers = append(powers, r.out.powerW)
				times = append(times, r.out.iterTimeS)
				energies = append(energies, r.out.energyJ)
				aligns = append(aligns, r.out.alignment)
				hams = append(hams, r.out.hamming)
				busies = append(busies, r.out.busyFrac)
				throttled = throttled || r.out.throttled
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
