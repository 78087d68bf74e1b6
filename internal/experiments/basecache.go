package experiments

import (
	"slices"
	"sync"

	"repro/internal/activity"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/rng"
)

// Base-matrix caching: within one Run, every point of an experiment
// shares the generation stage of its input pattern (e.g. all sparsity
// fractions of fig6a start from the same Gaussian draw), so the base
// matrix is generated once per (encoding class, operand side, seed,
// base pattern) and each point's transform chain runs on a clone.
// Besides removing the dominant per-job cost (Gaussian generation),
// this matches the paper's methodology more closely: §IV applies its
// sort / sparsify / bit transforms to the same underlying matrices,
// not to fresh draws per sweep coordinate.
//
// Three further layers ride on the same cache:
//
//   - One pass for every encoding class. A pattern whose generation
//     splits into a datatype-independent draw and a per-datatype
//     encode (Pattern.Rows: the Gaussian and value-set patterns)
//     builds the bases of all classes of a (side, seed, base name) in
//     one pass (generateClasses): each row is drawn once, and every
//     class encodes it and adds it to its row-stream statistics. The
//     classes' matrices are different roundings of the same values.
//   - Operand statistics. Each base entry memoizes its
//     activity.OperandStats per stream orientation (the row stream
//     comes from the generation pass when there is one), so transform
//     variants patch the base's stats incrementally (or reuse them
//     outright when there is no transform) instead of rescanning the
//     operand per job.
//   - RNG-free prefixes. The steps right after generation that draw no
//     random numbers (Pattern.Prep: sorts, zero-LSB/MSB) run once per
//     (encoding class, side, seed, base, prefix) on a clone of the
//     base. The result is a second entry with its own memoized stats,
//     which serves every point and datatype of the class whose
//     pipeline starts with that prefix; Fill stays the reference.
//
// A job serves a whole datatype group (see Run), so FP16 and FP16-T
// request each matrix once between them. Every entry lives until the
// end of its Run. The cached matrices and the jobs' transformed clones
// live in recycled storage (operandPool): a Run takes its words from
// the pool and hands them back once its jobs are done, so a campaign's
// steady state allocates no operand storage.

// encClass maps a datatype to its encoding class: datatypes that store
// identical bit patterns for identical value streams share one cache
// entry. FP16 and FP16-T differ only in arithmetic (SIMT vs tensor
// core), not in storage encoding, so one generation serves both.
func encClass(dt matrix.DType) matrix.DType {
	if dt == matrix.FP16T {
		return matrix.FP16
	}
	return dt
}

// stageName names one cached matrix of a (class, side, seed): a
// generated base (prep empty) or a base carried through an RNG-free
// prefix.
type stageName struct {
	base string // Pattern.BaseName
	prep string // Pattern.PrepName
}

// baseKey identifies one cached base, full-sort or prefix matrix
// within a Run.
type baseKey struct {
	class matrix.DType // encClass of the requesting datatype
	side  string       // "A" or "B"
	seed  int
	stageName
}

// fullSortKey is the key of the full sort of the base at key that
// every fraction of pl's partial sort derives its prefix from: one
// entry serves IntoRows and IntoCols, which sort the same row-major
// sequence, and one WithinRows. No PrepName takes either stage name.
func fullSortKey(key baseKey, pl matrix.Placement) baseKey {
	key.prep = "fullsort"
	if pl == matrix.WithinRows {
		key.prep = "fullsort(withinrows)"
	}
	return key
}

// operandPool recycles operand storage across jobs and Runs: a job's
// transformed clones return once every datatype of its group has been
// measured, and a Run's base and prefix matrices once all its jobs
// have. A matrix taken from the pool holds stale words; every taker
// overwrites all of them.
var operandPool sync.Pool

// newOperand returns a size×size matrix of datatype dt in pooled
// storage, its words not zeroed.
func newOperand(dt matrix.DType, size int) *matrix.Matrix {
	n := size * size
	m, _ := operandPool.Get().(*matrix.Matrix)
	if m == nil || cap(m.Bits) < n {
		return &matrix.Matrix{DType: dt, Rows: size, Cols: size, Bits: make([]uint32, n)}
	}
	m.DType, m.Rows, m.Cols, m.Bits = dt, size, size, m.Bits[:n]
	return m
}

type baseEntry struct {
	once sync.Once
	m    *matrix.Matrix

	// Lazily memoized operand statistics of the base bits. Valid for
	// every datatype of the encoding class (identical bits, identical
	// significand tables). rowStats is the row-stream profile (ScanA:
	// operand A, or operand B carried as transposed storage); colStats
	// is the column-stream profile (ScanB: operand B in normal
	// storage).
	rowOnce  sync.Once
	rowStats *activity.OperandStats
	colOnce  sync.Once
	colStats *activity.OperandStats
}

func (e *baseEntry) row() *activity.OperandStats {
	e.rowOnce.Do(func() { e.rowStats = activity.ScanA(e.m) })
	return e.rowStats
}

func (e *baseEntry) col() *activity.OperandStats {
	e.colOnce.Do(func() { e.colStats = activity.ScanB(e.m) })
	return e.colStats
}

// stats returns the base's operand statistics in the requested stream
// orientation.
func (e *baseEntry) stats(colOrient bool) *activity.OperandStats {
	if colOrient {
		return e.col()
	}
	return e.row()
}

// groupKey identifies one multi-class generation. No encoding class:
// every class of a (side, seed, base name) comes from the same draws.
type groupKey struct {
	side string
	seed int
	name string
}

// groupEntry is one multi-class generation (generateClasses): each
// encoding class's base matrix and row-stream stats (nil when no point
// reads them), in the order of the runner's class list for the base
// name.
type groupEntry struct {
	once sync.Once
	ms   []*matrix.Matrix
	sts  []*activity.OperandStats
}

// baseCache is a per-Run cache. Its entries stay until the Run ends,
// and their matrices until release.
type baseCache struct {
	mu      sync.Mutex
	entries map[baseKey]*baseEntry
	groups  map[groupKey]*groupEntry
	made    []*matrix.Matrix // every base and prefix matrix, for release
}

// newMatrix returns pooled storage for a base or prefix matrix and
// records it for release.
func (c *baseCache) newMatrix(dt matrix.DType, size int) *matrix.Matrix {
	m := newOperand(dt, size)
	c.mu.Lock()
	c.made = append(c.made, m)
	c.mu.Unlock()
	return m
}

// release returns every base and prefix matrix to the pool. It runs
// once the Run's jobs are done, when nothing reads them any more.
func (c *baseCache) release() {
	for _, m := range c.made {
		operandPool.Put(m)
	}
	c.made = nil
}

func newBaseCache() *baseCache {
	return &baseCache{
		entries: map[baseKey]*baseEntry{},
		groups:  map[groupKey]*groupEntry{},
	}
}

// get returns the cache entry for key, generating its matrix on first
// use via gen. The entry's matrix is shared — callers must treat it as
// read-only. gen receives the entry so the multi-class generation can
// seed its memoized row stats (under the entry's own rowOnce).
func (c *baseCache) get(key baseKey, gen func(e *baseEntry) *matrix.Matrix) *baseEntry {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &baseEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.m = gen(e) })
	return e
}

// group returns the multi-class generation for key, running gen on
// first use. The entry is shared read-only.
func (c *baseCache) group(key groupKey, gen func(g *groupEntry)) *groupEntry {
	c.mu.Lock()
	g := c.groups[key]
	if g == nil {
		g = &groupEntry{}
		c.groups[key] = g
	}
	c.mu.Unlock()
	g.once.Do(func() { gen(g) })
	return g
}

// materialize produces one operand matrix for a job together with its
// operand statistics in the requested stream orientation (colOrient
// false: row stream, the profile of operand A or of a transposed-
// storage operand B; true: column stream). The statistics are nil when
// they could not be derived cheaply — monolithic patterns, untrackable
// transform chains, or dense touch sets — and the caller falls back to
// activity's full rescan.
//
// The matrix is the cached base (generated from a side-and-base-
// specific stream, shared read-only) or the cached prefix built from
// it when the pattern has no transform stage; otherwise a clone of
// that matrix carried through the transform chain, whose statistics
// are patched incrementally from the cached ones when the chain
// enumerates its touched positions. The bool reports such a clone,
// which the caller owns and returns to operandPool when done. A shared
// matrix carries the datatype tag of whichever class member built it.
func (r *runner) materialize(pat patterns.Pattern, dt matrix.DType, side string, seed int,
	streamSeed uint64, colOrient bool) (*matrix.Matrix, *activity.OperandStats, bool) {
	size := r.cfg.Size
	if pat.BaseFill == nil {
		m := matrix.New(dt, size, size)
		pat.Apply(m, rng.Derive(streamSeed, side))
		return m, nil, false
	}
	cache := r.cache
	baseAt := baseKey{class: encClass(dt), side: side, seed: seed, stageName: stageName{base: pat.BaseName}}
	genBase := func(e *baseEntry) *matrix.Matrix {
		src := rng.Derive(streamSeed, side+"/"+pat.BaseName)
		if pat.Rows == nil {
			m := cache.newMatrix(dt, size)
			clear(m.Bits) // BaseFill may count on matrix.New's zeroed words
			pat.BaseFill(m, src)
			return m
		}
		classes := r.classes[pat.BaseName]
		g := cache.group(groupKey{side: side, seed: seed, name: pat.BaseName},
			func(g *groupEntry) {
				g.ms = make([]*matrix.Matrix, len(classes))
				for i, cl := range classes {
					g.ms[i] = cache.newMatrix(cl, size)
				}
				g.sts = generateClasses(pat, src, g.ms, r.scanned[pat.BaseName])
			})
		i := slices.Index(classes, encClass(dt))
		if g.sts != nil {
			e.rowOnce.Do(func() { e.rowStats = g.sts[i] })
		}
		return g.ms[i]
	}
	var e *baseEntry
	if pat.Prep == nil {
		e = cache.get(baseAt, genBase)
	} else {
		// The prefix is built once, from the base: derived from the
		// base's full sort when it is one partial sort, else by Prep
		// on a clone.
		prepAt := baseAt
		prepAt.prep = pat.PrepName
		e = cache.get(prepAt, func(*baseEntry) *matrix.Matrix {
			base := cache.get(baseAt, genBase).m
			m := cache.newMatrix(base.DType, size)
			if st := pat.PrepSort; st != nil {
				full := cache.get(fullSortKey(baseAt, st.Placement), func(*baseEntry) *matrix.Matrix {
					f := cache.newMatrix(base.DType, size)
					matrix.FullSort(f, base, st.Placement)
					return f
				}).m
				matrix.DerivePartialSort(m, base, full, st.Placement, st.Frac)
				return m
			}
			copy(m.Bits, base.Bits)
			pat.Prep(m)
			return m
		})
	}
	base := e.m
	if pat.Transform == nil {
		// No transform stage: the shared matrix is used as-is
		// (read-only downstream), and its memoized stats apply directly.
		return base, e.stats(colOrient), false
	}
	m := newOperand(base.DType, size)
	copy(m.Bits, base.Bits)
	src := rng.Derive(streamSeed, side+"/x/"+pat.Name)
	if pat.DeltaTransform == nil {
		pat.Transform(m, src)
		return m, nil, true
	}
	touched, ok := pat.DeltaTransform(m, src)
	if !ok {
		return m, nil, true
	}
	st := e.stats(colOrient)
	if colOrient {
		return m, st.DeltaColScan(base, m, touched), true
	}
	return m, st.DeltaRowScan(base, m, touched), true
}

// generateClasses runs pat's generation stage once for several
// encoding classes, one matrix each in ms, all of one shape: it draws
// every row once (pat.Rows), and each class encodes the row into its
// matrix and, when scan is set, adds it to its row-stream statistics.
// Each matrix equals pat.BaseFill on src, and each statistics
// activity.ScanA of it; they come back in the order of ms, or nil
// without scan.
func generateClasses(pat patterns.Pattern, src *rng.Source, ms []*matrix.Matrix, scan bool) []*activity.OperandStats {
	next, encode := pat.Rows(src)
	rows, cols := ms[0].Rows, ms[0].Cols
	var sts []*activity.OperandStats
	if scan {
		sts = make([]*activity.OperandStats, len(ms))
		for c := range sts {
			sts[c] = &activity.OperandStats{Sig: make([]int64, cols)}
		}
	}
	raw := make([]float64, cols)
	for i := 0; i < rows; i++ {
		next(raw)
		for c, m := range ms {
			row := m.Row(i)
			encode(row, raw, m.DType)
			if scan {
				sts[c].AddRow(m.DType, row)
			}
		}
	}
	return sts
}
