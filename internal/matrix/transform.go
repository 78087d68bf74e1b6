package matrix

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/bitops"
	"repro/internal/rng"
)

// This file implements the input transformations of §IV: placement
// (partial sorting variants), sparsity, and bit-level edits. Transforms
// mutate the matrix in place; callers clone first if they need the
// original.

// clampFrac clamps a fraction to [0, 1], mapping NaN to 0.
func clampFrac(f float64) float64 {
	if !(f >= 0) {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// countOf returns round(frac·n) clamped to [0, n].
func countOf(frac float64, n int) int {
	k := int(clampFrac(frac)*float64(n) + 0.5)
	if k > n {
		k = n
	}
	return k
}

// orderKey maps a raw bit pattern to an unsigned sort key whose order
// matches the decoded numeric order, without decoding to float:
//
//	key(b) = (b & mask) ^ flip
//
// flip is the key's top (sign) bit, widened to every stored bit when a
// floating-point pattern is negative — the classic sign-magnitude flip
// at the datatype's native width. INT8 only flips the sign bit of the
// two's-complement pattern. Bits above the width are ignored. NaN
// payloads order arbitrarily but deterministically (they sort above
// ±Inf of their sign).
//
// The struct keeps to four fields so the compiler holds it in
// registers inside the sort loops.
type orderKey struct {
	mask, top, wide uint32
	shift           uint32 // moves the pattern's sign bit to bit 31
}

func orderKeyOf(dt DType) orderKey {
	w := dt.Width()
	k := orderKey{mask: bitops.LowMask(w), top: 1 << (w - 1), shift: uint32(32 - w)}
	if dt.IsFloat() {
		k.wide = k.mask
	}
	return k
}

func (o orderKey) of(b uint32) uint32 {
	return (b & o.mask) ^ (o.top | uint32(int32(b<<o.shift)>>31)&o.wide)
}

// width returns the key width in bits: 8, 16 or 32.
func (o orderKey) width() int { return bits.OnesCount32(o.mask) }

// countingMin is the input size from which 16-bit keys take the
// counting path and FP32 radix passes take 16-bit digits: below it,
// clearing and scanning 65536 buckets costs more than the 8-bit
// passes it saves.
const countingMin = 1 << 14

// sortWork is the working memory of one partial sort: two word buffers
// and the bucket counts. It lives in sortPool between calls, so
// steady-state sorts allocate nothing; the pool releases it at garbage
// collection.
type sortWork struct {
	a, b  []uint32
	count []uint32
}

var sortPool = sync.Pool{New: func() any { return new(sortWork) }}

// sized returns buf resliced to n elements, reallocated if too small.
func sized(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// partialSort returns, in one of w's buffers, the elements of src
// reordered so that the k smallest (1 ≤ k ≤ len(src)) come first,
// ascending by order key and, among equal keys, by original index;
// the other elements follow in their original order. It moves the
// original 32-bit words and leaves src unchanged.
//
// 8-bit keys, and 16-bit keys on large inputs, take one histogram
// pass and one scatter (countingPartial). FP32, and 16-bit keys on
// short inputs such as SortWithinRows' rows, take a stable LSD radix
// sort followed by a pass that collects the remainder (radixPartial).
// Both are linear in len(src).
func (w *sortWork) partialSort(src []uint32, key orderKey, k int) []uint32 {
	n := len(src)
	w.a = sized(w.a, n)
	width := key.width()
	if width == 8 || width == 16 && n >= countingMin {
		w.count = sized(w.count, 1<<width)
		countingPartial(src, w.a, w.count, key, k)
		return w.a
	}
	digitBits := 8
	if n >= countingMin {
		digitBits = 16
	}
	w.b = sized(w.b, n)
	w.count = sized(w.count, width/digitBits<<digitBits)
	return radixPartial(src, w.a, w.b, w.count, key, digitBits, k)
}

// countingPartial is partialSort over one bucket per key. The
// histogram gives the threshold key t, the smallest whose cumulative
// count reaches k. Keys below t, and the first elements with key t up
// to a total of k, scatter to their prefix-sum positions; every other
// element goes to the remainder in the same pass, in original order.
func countingPartial(src, out, count []uint32, key orderKey, k int) {
	clear(count)
	for _, b := range src {
		count[key.of(b)]++
	}
	kk := uint32(k)
	var start uint32
	t := 0
	for ; ; t++ {
		c := count[t]
		count[t] = start
		if start+c >= kk {
			break
		}
		start += c
	}
	// Bucket t fills up at position k; keys above it start full.
	for j := t + 1; j < len(count); j++ {
		count[j] = kk
	}
	rest := kk
	for _, b := range src {
		kb := key.of(b)
		p := count[kb]
		d, in := rest, uint32(0)
		if p < kk {
			d, in = p, 1
		}
		out[d] = b
		count[kb] = p + in
		rest += 1 - in
	}
}

// radixPartial is partialSort by a stable LSD radix sort of the words
// over digitBits-wide key digits, ping-ponging between a and b and
// skipping digits every element shares. count holds one histogram per
// digit. The k-th smallest key t then bounds the remainder: a pass
// over src drops keys below t and the first elements with key t that
// the sorted prefix took, and appends the rest after position k.
func radixPartial(src, a, b, count []uint32, key orderKey, digitBits, k int) []uint32 {
	n := len(src)
	digits, nb := key.width()/digitBits, 1<<digitBits
	dmask := uint32(nb - 1)
	clear(count)
	if digits == 2 {
		lo, hi := count[:nb], count[nb:]
		for _, w := range src {
			kw := key.of(w)
			lo[kw&dmask]++
			hi[kw>>digitBits&dmask]++
		}
	} else {
		h0, h1, h2, h3 := count[:256], count[256:512], count[512:768], count[768:]
		for _, w := range src {
			kw := key.of(w)
			h0[kw&0xFF]++
			h1[kw>>8&0xFF]++
			h2[kw>>16&0xFF]++
			h3[kw>>24]++
		}
	}
	bufs := [2][]uint32{a, b}
	sorted, next := src, 0
	first := key.of(src[0])
	for d := 0; d < digits; d++ {
		shift := d * digitBits
		c := count[d*nb : (d+1)*nb]
		if c[first>>shift&dmask] == uint32(n) {
			continue
		}
		var sum uint32
		for i, x := range c {
			c[i] = sum
			sum += x
		}
		to := bufs[next]
		for _, w := range sorted {
			dg := key.of(w) >> shift & dmask
			to[c[dg]] = w
			c[dg]++
		}
		sorted, next = to, next^1
	}
	if &sorted[0] == &src[0] {
		// Every key is equal: the input order is already sorted.
		sorted = a
		copy(sorted, src)
	}
	if k == n {
		return sorted
	}
	t := key.of(sorted[k-1])
	take := 0
	for j := k - 1; j >= 0 && key.of(sorted[j]) == t; j-- {
		take++
	}
	// Drop keys below bound: t+1 while ties at t are left to skip,
	// then t. Each word is written at rest, which advances only past
	// kept words; the loop ends once the n-k kept words are placed.
	// The selects keep the loop free of data-dependent branches.
	bound := uint64(t) + 1
	rest := k
	for _, w := range src {
		if rest == n {
			break
		}
		kw := uint64(key.of(w))
		var drop, tie int
		if kw < bound {
			drop = 1
		}
		if kw == uint64(t) {
			tie = 1
		}
		sorted[rest] = w
		rest += 1 - drop
		take -= tie
		if take <= 0 {
			bound = uint64(t)
		}
	}
	return sorted
}

// sortWhole partially sorts the whole matrix along its row-major
// (colMajor false) or column-major walk.
func sortWhole(m *Matrix, frac float64, colMajor bool) {
	k := countOf(frac, len(m.Bits))
	if k == 0 {
		return
	}
	w := sortPool.Get().(*sortWork)
	res := w.partialSort(m.Bits, orderKeyOf(m.DType), k)
	if colMajor {
		// res lists the elements in column-major walk order, i.e. the
		// matrix's transpose in row-major storage.
		transposeBits(m.Bits, res, m.Cols, m.Rows)
	} else {
		copy(m.Bits, res)
	}
	sortPool.Put(w)
}

// SortIntoRows partially sorts the matrix row-wise (§IV-C, Fig. 5a/5b):
// the lowest frac of values are sorted into the first frac of row-major
// indices.
func SortIntoRows(m *Matrix, frac float64) { sortWhole(m, frac, false) }

// SortIntoCols partially sorts the matrix column-wise (§IV-C, Fig. 5c):
// the lowest frac of values are sorted into the first frac of
// column-major indices.
func SortIntoCols(m *Matrix, frac float64) { sortWhole(m, frac, true) }

// SortWithinRows partially sorts each row independently (§IV-C,
// Fig. 5d): within every row, the lowest frac of that row's values are
// sorted into the row's first indices.
func SortWithinRows(m *Matrix, frac float64) {
	k := countOf(frac, m.Cols)
	if k == 0 {
		return
	}
	key := orderKeyOf(m.DType)
	w := sortPool.Get().(*sortWork)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		copy(row, w.partialSort(row, key, k))
	}
	sortPool.Put(w)
}

// SortFully sorts every element ascending in row-major order, the
// starting point of the sparsity-after-sorting experiment (Fig. 6b).
func SortFully(m *Matrix) { SortIntoRows(m, 1) }

// DeltaDenseFrac is the density cutoff shared by the tracked
// transforms and activity's incremental delta scans: a touched list
// longer than len(Bits)/DeltaDenseFrac costs more to sort and patch
// than a full streaming rescan, so the tracked transforms decline to
// enumerate a set they can tell upfront will be that dense — the
// transform is still applied in full with identical RNG consumption,
// only the tracking is skipped.
const DeltaDenseFrac = 8

// Sparsify sets a uniformly random frac of the elements to zero
// (§IV-D, Fig. 6a/6b). Positions are chosen without replacement (a
// partial Fisher–Yates over the index space — only the first k steps
// of the shuffle run) so the realized sparsity is exact up to rounding.
func Sparsify(m *Matrix, src *rng.Source, frac float64) {
	SparsifyTouched(m, src, frac)
}

// SparsifyTouched is Sparsify, additionally returning the element
// indices it zeroed so callers can update derived statistics
// incrementally. ok is false when the touched set is not enumerated —
// everything zeroed, or dense past DeltaDenseFrac; the RNG consumption
// is identical to Sparsify in every case.
func SparsifyTouched(m *Matrix, src *rng.Source, frac float64) (touched []int32, ok bool) {
	n := len(m.Bits)
	k := countOf(frac, n)
	if k == 0 {
		return nil, true
	}
	if k == n {
		Zero(m)
		return nil, false
	}
	scratch := idxPool.Get().(*[]int32)
	defer idxPool.Put(scratch)
	if cap(*scratch) < n {
		*scratch = make([]int32, n)
	}
	idx := (*scratch)[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	// Step s draws j = s + Intn(n-s); Intn is one Uint64 modulo its
	// bound, so the draws come in bulk.
	var draws [drawChunk]uint64
	for lo := 0; lo < k; lo += len(draws) {
		d := draws[:min(len(draws), k-lo)]
		src.Fill(d)
		for i, u := range d {
			s := lo + i
			j := s + int(u%uint64(n-s))
			idx[s], idx[j] = idx[j], idx[s]
			m.Bits[idx[s]] = 0
		}
	}
	if DeltaDenseFrac*k > n {
		return nil, false
	}
	// The shuffle prefix is exactly the set of zeroed positions; copy
	// it out of the pooled scratch.
	return append([]int32(nil), idx[:k]...), true
}

// idxPool holds SparsifyTouched's index scratch between calls.
var idxPool = sync.Pool{New: func() any { return new([]int32) }}

// drawChunk is how many random words the bulk-drawing transforms take
// from rng.Source.Fill at a time: 4 KiB, held on the stack.
const drawChunk = 512

// RandomBitFlips flips each bit of each element independently with
// probability p (§IV-B, Fig. 4a). Starting from a constant-filled
// matrix, p = 0 leaves all elements identical and p = 0.5 makes them
// independently random.
//
// Dense flip probabilities draw one threshold-compared word per bit;
// sparse ones (p < ¼) jump between flips with geometric skips, so the
// work scales with the number of flips instead of the number of bits.
// Both are exact Bernoulli processes per bit.
func RandomBitFlips(m *Matrix, src *rng.Source, p float64) {
	RandomBitFlipsTouched(m, src, p)
}

// RandomBitFlipsTouched is RandomBitFlips, additionally returning the
// element indices whose bits it flipped (non-decreasing, duplicates
// possible when one element takes several flips) so callers can update
// derived statistics incrementally. ok is false when the touched set
// is not enumerated — the dense paths (p ≥ ¼), and flip rates whose
// expected flip count already exceeds the DeltaDenseFrac cutoff, where
// nearly every element changes anyway. RNG consumption is identical to
// RandomBitFlips in every case.
func RandomBitFlipsTouched(m *Matrix, src *rng.Source, p float64) (touched []int32, ok bool) {
	p = clampFrac(p)
	if p == 0 {
		return nil, true
	}
	width := m.DType.Width()
	if p >= 1 {
		mask := bitops.LowMask(width)
		for i := range m.Bits {
			m.Bits[i] ^= mask
		}
		return nil, false
	}
	if p >= 0.25 {
		// One 63-bit threshold compare per bit, element by element and
		// bit by bit from the low end, drawn in bulk. Both sides are
		// below 2⁶³, so the difference borrows into bit 63 exactly
		// when the bit flips.
		thresh := uint64(p * (1 << 63))
		var draws [drawChunk]uint64
		per := len(draws) / width
		for lo := 0; lo < len(m.Bits); lo += per {
			els := m.Bits[lo:min(lo+per, len(m.Bits))]
			d := draws[:len(els)*width]
			src.Fill(d)
			for i := range els {
				var flip uint32
				for b, u := range d[i*width : (i+1)*width] {
					flip |= uint32((u>>1-thresh)>>63) << uint(b)
				}
				els[i] ^= flip
			}
		}
		return nil, false
	}
	// Geometric skipping over the matrix's global bit stream: the gap
	// between successive flips is Geometric(p) by inversion sampling.
	// The expected list length is p·width per element; when that is
	// already past the density cutoff, flip without enumerating.
	track := DeltaDenseFrac*p*float64(width) <= 1
	total := len(m.Bits) * width
	shift := uint(bits.TrailingZeros(uint(width))) // widths are powers of two
	mask := width - 1
	lnq := math.Log(1 - p)
	pos := 0
	for {
		skip := math.Floor(math.Log(1-src.Float64()) / lnq)
		if skip >= float64(total-pos) {
			return touched, track
		}
		pos += int(skip)
		m.Bits[pos>>shift] ^= 1 << uint(pos&mask)
		if track {
			touched = append(touched, int32(pos>>shift))
		}
		pos++
		if pos >= total {
			return touched, track
		}
	}
}

// RandomizeLSBs replaces the n least significant bits of every element
// with independent random bits (§IV-B, Fig. 4b).
func RandomizeLSBs(m *Matrix, src *rng.Source, n int) {
	width := m.DType.Width()
	if n <= 0 {
		return
	}
	if n > width {
		n = width
	}
	randomizeBits(m, src, bitops.LowMask(n))
}

// RandomizeMSBs replaces the n most significant bits of every element
// with independent random bits (§IV-B, Fig. 4c).
func RandomizeMSBs(m *Matrix, src *rng.Source, n int) {
	width := m.DType.Width()
	if n <= 0 {
		return
	}
	randomizeBits(m, src, bitops.HighMask(n, width))
}

// randomizeBits replaces the masked bits of every element with the
// masked high half of one draw (what Uint32 returns), drawn in bulk.
func randomizeBits(m *Matrix, src *rng.Source, mask uint32) {
	var draws [drawChunk]uint64
	for lo := 0; lo < len(m.Bits); lo += len(draws) {
		els := m.Bits[lo:min(lo+len(draws), len(m.Bits))]
		d := draws[:len(els)]
		src.Fill(d)
		for i, u := range d {
			els[i] = els[i]&^mask | uint32(u>>32)&mask
		}
	}
}

// ZeroLSBs clears the n least significant bits of every element
// (§IV-D "sparsity in physical structure", Fig. 6c).
func ZeroLSBs(m *Matrix, n int) {
	if n <= 0 {
		return
	}
	width := m.DType.Width()
	if n > width {
		n = width
	}
	mask := ^bitops.LowMask(n)
	for i := range m.Bits {
		m.Bits[i] &= mask
	}
}

// ZeroMSBs clears the n most significant bits of every element
// (§IV-D, Fig. 6d).
func ZeroMSBs(m *Matrix, n int) {
	if n <= 0 {
		return
	}
	width := m.DType.Width()
	mask := ^bitops.HighMask(n, width)
	for i := range m.Bits {
		m.Bits[i] &= mask
	}
}

// Zero clears the whole matrix (the paper zeroes the C matrix).
func Zero(m *Matrix) {
	for i := range m.Bits {
		m.Bits[i] = 0
	}
}
