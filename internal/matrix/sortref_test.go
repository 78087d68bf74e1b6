package matrix

import "slices"

// This file keeps the original packed-argsort implementation of the
// partial sorts as the reference the linear-time kernels in
// transform.go are checked against (FuzzPartialSort,
// TestPartialSortMatchesReference). The functions from orderKeyFn to
// colMajorOrder are unchanged from that implementation; refSort
// replays its row-wise, column-wise and within-row sort bodies.

// orderKeyFn returns the raw-pattern → sortable-key mapping for a
// datatype: the unsigned order of the key matches the decoded numeric
// order, without decoding to float. For the sign-magnitude FP formats
// the classic flip works at the native width; INT8 just flips the sign
// bit of the two's-complement pattern. NaN payloads order arbitrarily
// but deterministically (they sort above +Inf of their sign).
func orderKeyFn(dt DType) func(uint32) uint32 {
	switch dt {
	case FP32:
		return func(b uint32) uint32 {
			if b&0x80000000 != 0 {
				return ^b
			}
			return b | 0x80000000
		}
	case FP16, FP16T, BF16T:
		return func(b uint32) uint32 {
			h := uint16(b)
			if h&0x8000 != 0 {
				return uint32(^h)
			}
			return uint32(h) | 0x8000
		}
	case INT8:
		return func(b uint32) uint32 { return uint32(uint8(b)) ^ 0x80 }
	default:
		panic("matrix: unknown dtype")
	}
}

// sortKeyIdx sorts packed (key<<32 | index) entries by a stable 2-pass
// 16-bit LSD radix over the key field. The input arrives in index
// order, and LSD stability makes the result ordered by (key, index) —
// exactly a full uint64 sort of the packed entries, at O(n) instead of
// O(n log n) for the multi-million-element full-scale matrices. Small
// inputs keep the comparison sort (the histogram pass would dominate).
func sortKeyIdx(keys []uint64) {
	if len(keys) < 1<<14 {
		slices.Sort(keys)
		return
	}
	tmp := make([]uint64, len(keys))
	var count [1 << 16]int32
	for pass := 0; pass < 2; pass++ {
		shift := uint(32 + 16*pass)
		clear(count[:])
		for _, k := range keys {
			count[(k>>shift)&0xFFFF]++
		}
		var sum int32
		for b := range count {
			c := count[b]
			count[b] = sum
			sum += c
		}
		for _, k := range keys {
			b := (k >> shift) & 0xFFFF
			tmp[count[b]] = k
			count[b]++
		}
		keys, tmp = tmp, keys
	}
	// Two passes: the fully sorted data is back in the caller's slice.
}

// partialSortInto reorders the elements so that the k smallest values,
// sorted ascending, occupy the positions listed in dst[:k]; the
// remaining elements fill the remaining positions of dst in their
// original relative order. dst must be a permutation of all indices.
//
// The argsort packs each element's order key and index into one uint64
// (key high, index low) so a single primitive radix/pdq sort does a
// stable value sort — the paper's 2048² matrices hold 4.2M elements,
// and an interface-based sort.SliceStable here dominated whole
// experiment sweeps. Order keys come straight from the raw bit
// patterns (orderKeyFn), so no element is decoded.
func partialSortInto(m *Matrix, frac float64, dst []int) {
	partialSortIntoScratch(m, frac, dst, &sortScratch{})
}

// sortScratch holds the working buffers of partialSortIntoScratch so
// per-row callers (WithinRows) can reuse them across many small
// sorts instead of reallocating three buffers per row.
type sortScratch struct {
	keys     []uint64
	isLowest []bool
	out      []uint32
}

func (sc *sortScratch) grow(n int) {
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
		sc.isLowest = make([]bool, n)
		sc.out = make([]uint32, n)
	}
	sc.keys = sc.keys[:n]
	sc.isLowest = sc.isLowest[:n]
	sc.out = sc.out[:n]
	clear(sc.isLowest)
}

func partialSortIntoScratch(m *Matrix, frac float64, dst []int, sc *sortScratch) {
	n := len(m.Bits)
	k := countOf(frac, n)
	if k == 0 {
		return
	}

	key := orderKeyFn(m.DType)
	sc.grow(n)
	keys := sc.keys
	for i, b := range m.Bits {
		keys[i] = uint64(key(b))<<32 | uint64(uint32(i))
	}
	sortKeyIdx(keys)

	isLowest := sc.isLowest
	out := sc.out
	// Place the k smallest (in ascending order, ties by original
	// position) at dst[:k].
	for p := 0; p < k; p++ {
		i := int(uint32(keys[p]))
		isLowest[i] = true
		out[dst[p]] = m.Bits[i]
	}
	// Remaining values keep original relative order in the remaining
	// destination slots.
	p := k
	for i := 0; i < n; i++ {
		if isLowest[i] {
			continue
		}
		out[dst[p]] = m.Bits[i]
		p++
	}
	copy(m.Bits, out)
}

// rowMajorOrder returns row-major position indices.
func rowMajorOrder(rows, cols int) []int {
	out := make([]int, rows*cols)
	for i := range out {
		out[i] = i
	}
	return out
}

// colMajorOrder returns indices that walk the matrix column-major.
func colMajorOrder(rows, cols int) []int {
	out := make([]int, 0, rows*cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			out = append(out, i*cols+j)
		}
	}
	return out
}

// sortKind names one of the partial-sort entry points for the
// differential tests.
type sortKind int

const (
	sortRows sortKind = iota
	sortCols
	sortWithin
	numSortKinds
)

func (k sortKind) String() string {
	return [...]string{"rows", "cols", "withinrows"}[k]
}

// placement is the kind's Placement.
func (k sortKind) placement() Placement {
	return [...]Placement{IntoRows, IntoCols, WithinRows}[k]
}

// apply runs the partial sort under test.
func (k sortKind) apply(m *Matrix, frac float64) { PartialSort(m, k.placement(), frac) }

// refSort runs the reference implementation of the partial sort.
func refSort(m *Matrix, kind sortKind, frac float64) {
	switch kind {
	case sortRows:
		partialSortInto(m, frac, rowMajorOrder(m.Rows, m.Cols))
	case sortCols:
		partialSortInto(m, frac, colMajorOrder(m.Rows, m.Cols))
	default:
		dst := rowMajorOrder(1, m.Cols)
		var sc sortScratch
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			sub := &Matrix{DType: m.DType, Rows: 1, Cols: m.Cols, Bits: row}
			partialSortIntoScratch(sub, frac, dst, &sc)
		}
	}
}
