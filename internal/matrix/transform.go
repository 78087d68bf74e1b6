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

// sortWork is the working memory of the sorts: a result buffer, the
// radix sort's second buffer and the bucket counts. It lives in
// sortPool between calls, so steady-state sorts allocate nothing; the
// pool releases it at garbage collection.
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

// sortInto writes the words of src into out sorted ascending by order
// key and, among equal keys, by original index. It leaves src
// unchanged; out must not overlap it.
//
// 8-bit keys, and 16-bit keys on large inputs, take one histogram pass
// and one scatter (countingSort). FP32, and 16-bit keys on short
// inputs such as WithinRows' rows, take a stable LSD radix sort
// (radixSort). Both are linear in len(src).
func (w *sortWork) sortInto(out, src []uint32, key orderKey) {
	n := len(src)
	width := key.width()
	if width == 8 || width == 16 && n >= countingMin {
		w.count = sized(w.count, 1<<width)
		countingSort(out, src, w.count, key)
		return
	}
	digitBits := 8
	if n >= countingMin {
		digitBits = 16
	}
	w.b = sized(w.b, n)
	w.count = sized(w.count, width/digitBits<<digitBits)
	radixSort(out, src, w.b, w.count, key, digitBits)
}

// countingSort is sortInto over one bucket per key: a histogram, its
// prefix sums, and a scatter in source order.
func countingSort(out, src, count []uint32, key orderKey) {
	clear(count)
	for _, b := range src {
		count[key.of(b)]++
	}
	var sum uint32
	for i, c := range count {
		count[i] = sum
		sum += c
	}
	for _, b := range src {
		kb := key.of(b)
		out[count[kb]] = b
		count[kb]++
	}
}

// radixSort is sortInto by a stable LSD radix sort over digitBits-wide
// key digits, skipping digits every element shares. count holds one
// histogram per digit. The passes ping-pong between out and tmp,
// starting on whichever buffer makes the last pass land in out.
func radixSort(out, src, tmp, count []uint32, key orderKey, digitBits int) {
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
	first := key.of(src[0])
	var active [4]int
	passes := 0
	for d := 0; d < digits; d++ {
		if count[d*nb+int(first>>(d*digitBits)&dmask)] != uint32(n) {
			active[passes] = d
			passes++
		}
	}
	if passes == 0 {
		// Every key is equal: the input order is already sorted.
		copy(out, src)
		return
	}
	from := src
	for i, d := range active[:passes] {
		to := out
		if (passes-i)%2 == 0 {
			to = tmp
		}
		shift := d * digitBits
		c := count[d*nb : (d+1)*nb]
		var sum uint32
		for j, x := range c {
			c[j] = sum
			sum += x
		}
		for _, w := range from {
			dg := key.of(w) >> shift & dmask
			to[c[dg]] = w
			c[dg]++
		}
		from = to
	}
}

// derivePartial writes into out the partial sort of src by k (1 ≤ k ≤
// len(src)), given sorted, src sorted by sortInto: the k smallest
// words ascending, which are sorted's first k, then src's other words
// in their original order. out may be sorted itself, not src.
//
// The k-th smallest key t bounds the rest: one pass over src drops
// keys below t and the first words with key t that the sorted prefix
// took, and appends the others after position k.
func derivePartial(out, src, sorted []uint32, key orderKey, k int) {
	n := len(src)
	if &out[0] != &sorted[0] {
		copy(out[:k], sorted[:k])
	}
	if k == n {
		return
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
		out[rest] = w
		rest += 1 - drop
		take -= tie
		if take <= 0 {
			bound = uint64(t)
		}
	}
}

// Placement selects one of the partial sorts of §IV-C.
type Placement uint8

const (
	// IntoRows sorts the lowest values, ascending, into the first
	// row-major positions; the rest keep their relative order
	// (Fig. 5a/5b).
	IntoRows Placement = iota
	// IntoCols does the same along the column-major walk (Fig. 5c).
	IntoCols
	// WithinRows sorts each row on its own (Fig. 5d).
	WithinRows
)

// PartialSort partially sorts m in place: pl places the lowest frac of
// its values. It is FullSort into pooled scratch followed by the
// derive pass of DerivePartialSort.
func PartialSort(m *Matrix, pl Placement, frac float64) {
	k := sortCount(m, pl, frac)
	if k == 0 {
		return
	}
	key := orderKeyOf(m.DType)
	w := sortPool.Get().(*sortWork)
	if pl == WithinRows {
		w.a = sized(w.a, m.Cols)
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			w.sortInto(w.a, row, key)
			derivePartial(w.a, row, w.a, key, k)
			copy(row, w.a)
		}
	} else {
		w.a = sized(w.a, len(m.Bits))
		w.sortInto(w.a, m.Bits, key)
		derivePartial(w.a, m.Bits, w.a, key, k)
		place(m, w.a, pl)
	}
	sortPool.Put(w)
}

// sortCount is how many of the lowest values pl's partial sort of m by
// frac places (SortCount).
func sortCount(m *Matrix, pl Placement, frac float64) int {
	k, _ := SortCount(m.Rows, m.Cols, pl, frac)
	return k
}

// SortCount returns how many of the lowest values pl's partial sort of
// a rows×cols matrix by frac places, k, and out of how many, n:
// round(frac·n) of each row's n = cols for WithinRows, of the whole
// matrix's n = rows·cols otherwise. At k = 0 the sort changes no bit;
// at k = n it writes FullSort's result for IntoRows and WithinRows.
func SortCount(rows, cols int, pl Placement, frac float64) (k, n int) {
	n = rows * cols
	if pl == WithinRows {
		n = cols
	}
	return countOf(frac, n), n
}

// place writes a whole-matrix partial sort's element sequence into m:
// as it stands for IntoRows; for IntoCols it lists the elements in
// column-major walk order, i.e. the matrix's transpose in row-major
// storage.
func place(m *Matrix, seq []uint32, pl Placement) {
	if pl == IntoCols {
		transposeBits(m.Bits, seq, m.Cols, m.Rows)
	} else {
		copy(m.Bits, seq)
	}
}

// FullSort writes into dst, of src's shape, the elements of src sorted
// ascending by value (NaN patterns by their raw bits) and, among equal
// values, by original position: over the whole matrix in row-major
// order for IntoRows and IntoCols, which share it, or each row on its
// own for WithinRows. It is the one sort that every fraction of pl's
// partial sort of src derives from (DerivePartialSort). dst must not
// overlap src.
func FullSort(dst, src *Matrix, pl Placement) {
	key := orderKeyOf(src.DType)
	w := sortPool.Get().(*sortWork)
	if pl == WithinRows {
		for i := 0; i < src.Rows; i++ {
			w.sortInto(dst.Row(i), src.Row(i), key)
		}
	} else {
		w.sortInto(dst.Bits, src.Bits, key)
	}
	sortPool.Put(w)
}

// DerivePartialSort writes into dst, of src's shape, what PartialSort
// of pl and frac leaves on a copy of src, given full = FullSort of src
// under pl: the lowest values come from full, the rest from src in
// their original order, in one linear pass. dst must not overlap src
// or full.
func DerivePartialSort(dst, src, full *Matrix, pl Placement, frac float64) {
	k := sortCount(src, pl, frac)
	key := orderKeyOf(src.DType)
	switch {
	case k == 0:
		copy(dst.Bits, src.Bits)
	case pl == WithinRows:
		for i := 0; i < src.Rows; i++ {
			derivePartial(dst.Row(i), src.Row(i), full.Row(i), key, k)
		}
	case pl == IntoCols:
		w := sortPool.Get().(*sortWork)
		w.a = sized(w.a, len(src.Bits))
		derivePartial(w.a, src.Bits, full.Bits, key, k)
		place(dst, w.a, pl)
		sortPool.Put(w)
	default:
		derivePartial(dst.Bits, src.Bits, full.Bits, key, k)
	}
}

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
	// between successive flips is Geometric(p) by inversion sampling,
	// one uniform per flip (geomSkip), most of them read from a table.
	lnq := math.Log(1 - p)
	if lnq == 0 {
		// 1-p rounds to 1 (p ≤ 2⁻⁵⁴), where the skip is NaN or -Inf.
		// The paper's 2048² FP32 operands hold 2²⁷ bits, so such a p
		// flips one with probability below 2⁻²⁷: flip nothing and draw
		// nothing.
		return nil, true
	}
	// The expected list length is p·width per element; when that is
	// already past the density cutoff, flip without enumerating.
	track := DeltaDenseFrac*p*float64(width) <= 1
	total := len(m.Bits) * width
	shift := uint(bits.TrailingZeros(uint(width))) // widths are powers of two
	mask := width - 1
	tab := skipPool.Get().(*skipTable)
	defer skipPool.Put(tab)
	skips, drop := tab.build(lnq, p*float64(total))
	pos := 0
	for {
		j := src.Uint64() >> 11
		skip := int(skips[j>>drop])
		if skip < 0 {
			s := geomSkip(j, lnq)
			if s >= float64(total-pos) {
				return touched, track
			}
			skip = int(s)
		}
		if skip >= total-pos {
			return touched, track
		}
		pos += skip
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

// geomSkip is the geometric flip path's skip for the 53-bit uniform j,
// u = j/2⁵³ as rng.Source.Float64 forms it: floor(ln(1-u)/lnq).
func geomSkip(j uint64, lnq float64) float64 {
	return math.Floor(math.Log(1-float64(j)/(1<<53)) / lnq)
}

// skipBuckets bounds a skip table: 4096 buckets index the top 12 bits
// of the uniform. skipMargin widens a bucket before it may hold a skip
// (see skipTable).
const (
	skipBuckets = 1 << 12
	skipMargin  = 1 << 20
)

// skipTable maps the top bits of a flip draw's 53-bit uniform to the
// skip that the whole bucket of uniforms under them gives, or to -1
// where the draw evaluates geomSkip.
//
// A bucket [lo, hi] holds a skip only when geomSkip(lo-skipMargin) and
// geomSkip(hi+skipMargin) agree, both ends inside [0, 2⁵³). Then every j
// in the bucket agrees too. 1-u is exact, so moving j by the margin
// moves ln(1-u) by at least 2⁻³³, while |ln(1-u)| < 37 puts math.Log's
// error of under 1 ulp below 2⁻⁴⁷: the computed logarithm decreases
// strictly from the widened low end to j to the widened high end.
// Dividing by the negative lnq, correctly rounded, and taking the floor
// are both monotone, so j's skip lies between two equal ones. The
// margin is 2¹³ times wider than that error needs.
type skipTable [skipBuckets]int32

var skipPool = sync.Pool{New: func() any { return new(skipTable) }}

// build fills a prefix of t for one call of the geometric flip path
// and returns it with the shift that takes a 53-bit uniform to its
// bucket. A bucket costs two logarithms to build, so the table has at
// most an eighth as many buckets as the call expects draws (a power of
// two up to skipBuckets): the build costs at most a quarter of the
// logarithms the draws would. A bucket spans about 1/(buckets·p)
// skips, so with c = buckets·p, about 1-(1+ln c)/c of the draws find a
// skip; below c = 4 that is under 40 %, too few to repay the build,
// and the table shrinks to one bucket, which holds no skip.
func (t *skipTable) build(lnq, draws float64) ([]int32, uint) {
	n := skipBuckets
	for n > 1 && float64(8*n) > draws {
		n >>= 1
	}
	if float64(n)*-lnq < 4 {
		n = 1
	}
	drop := uint(53 - bits.TrailingZeros(uint(n)))
	width := uint64(1) << drop
	for i := range t[:n] {
		t[i] = -1
		lo, hi := uint64(i)*width, uint64(i+1)*width-1
		if lo < skipMargin || hi+skipMargin >= 1<<53 {
			continue
		}
		if s := geomSkip(lo-skipMargin, lnq); s == geomSkip(hi+skipMargin, lnq) {
			t[i] = int32(s)
		}
	}
	return t[:n], drop
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
