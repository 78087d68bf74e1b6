package matrix

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/rng"
)

// sortFracs are the fractions the fuzz decoder picks from before it
// falls back to a raw value.
var sortFracs = []float64{0, 1e-9, 0.01, 0.25, 0.5, 0.75, 0.999, 1}

// fuzzInputMax caps the input bytes the decoder reads. Later bytes
// are ignored, so the fuzzer keeps inputs short and minimizes them
// quickly.
const fuzzInputMax = 512

// fuzzReader hands out the fuzz input's bytes, then a stream seeded
// from them, so short inputs still fill whole matrices.
type fuzzReader struct {
	data []byte
	src  *rng.Source
}

func newFuzzReader(data []byte) *fuzzReader {
	data = data[:min(len(data), fuzzInputMax)]
	h := fnv.New64a()
	h.Write(data)
	return &fuzzReader{data: data, src: rng.New(h.Sum64())}
}

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return byte(r.src.Uint32())
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzReader) word() uint32 {
	var b [4]byte
	for i := range b {
		b[i] = r.byte()
	}
	return binary.LittleEndian.Uint32(b[:])
}

// decodeSortCase turns fuzz bytes into a matrix, a sort kind and a
// fraction. Elements are raw 32-bit words: some masked to the
// datatype's width, some with bits above it, and some drawn from a
// 3–5 value table so keys tie (table words may differ only above the
// width, so equal keys can hold different words).
func decodeSortCase(data []byte) (*Matrix, sortKind, float64) {
	r := newFuzzReader(data)
	dt := ExtendedDTypes[int(r.byte())%len(ExtendedDTypes)]
	kind := sortKind(int(r.byte()) % int(numSortKinds))
	rows, cols := 1+int(r.byte())%48, 1+int(r.byte())%48
	var frac float64
	if sel := r.byte(); sel < 0x80 {
		frac = sortFracs[int(sel)%len(sortFracs)]
	} else {
		frac = min(max(float64(int16(uint16(r.byte())|uint16(r.byte())<<8))/(1<<14), 0), 1)
	}
	mask := orderKeyOf(dt).mask
	table := make([]uint32, 3+int(r.byte())%3)
	for i := range table {
		table[i] = r.word()
		if r.byte()&1 == 0 {
			table[i] &= mask
		}
	}
	m := New(dt, rows, cols)
	for i := range m.Bits {
		switch r.byte() % 4 {
		case 0:
			m.Bits[i] = r.word() & mask
		case 1:
			m.Bits[i] = r.word()
		default:
			m.Bits[i] = table[int(r.byte())%len(table)]
		}
	}
	return m, kind, frac
}

// checkAgainstReference applies the partial sort to m and to a copy
// under the reference implementation and requires identical words. It
// also derives the partial sort from a full sort of the original
// (FullSort, then DerivePartialSort into storage holding stale words)
// and requires the same words from that.
func checkAgainstReference(t *testing.T, m *Matrix, kind sortKind, frac float64) {
	t.Helper()
	want := m.Clone()
	refSort(want, kind, frac)
	src := m.Clone()
	kind.apply(m, frac)
	requireEqualWords(t, m, want, kind, frac, "")
	full, derived := New(m.DType, m.Rows, m.Cols), New(m.DType, m.Rows, m.Cols)
	for i := range full.Bits {
		full.Bits[i], derived.Bits[i] = 0xDEADBEEF, 0xDEADBEEF
	}
	FullSort(full, src, kind.placement())
	DerivePartialSort(derived, src, full, kind.placement(), frac)
	requireEqualWords(t, derived, want, kind, frac, " (full sort + derive)")
}

// requireEqualWords fails at the first word of got that differs from
// the reference's.
func requireEqualWords(t *testing.T, got, want *Matrix, kind sortKind, frac float64, path string) {
	t.Helper()
	for i := range got.Bits {
		if got.Bits[i] != want.Bits[i] {
			t.Fatalf("%v %dx%d %v frac=%v%s: word %d = %#x, reference %#x",
				got.DType, got.Rows, got.Cols, kind, frac, path, i, got.Bits[i], want.Bits[i])
		}
	}
}

// FuzzPartialSort holds PartialSort at each Placement, and the same
// sorts derived from a full sort, to the original
// packed-argsort implementation bit for bit, over every datatype,
// shapes from 1×1 to 48×48, tied keys, NaN patterns and bits above the
// datatype's width.
func FuzzPartialSort(f *testing.F) {
	for dt := range ExtendedDTypes {
		for kind := range numSortKinds {
			f.Add([]byte{byte(dt), byte(kind), 17, 23, 4})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, kind, frac := decodeSortCase(data)
		checkAgainstReference(t, m, kind, frac)
	})
}

// TestPartialSortMatchesReference covers what the fuzzer's small
// shapes cannot: full 512² matrices, where 16-bit keys take the
// counting path, and shapes on either side of countingMin for both
// whole-matrix and within-row sorts. Constant keys with differing high
// bits exercise the radix path's all-digits-skipped case.
func TestPartialSortMatchesReference(t *testing.T) {
	type shape struct{ rows, cols int }
	fill := func(m *Matrix, seed uint64, ties bool) {
		src := rng.New(seed)
		FillGaussian(m, src, 0, DefaultStd(m.DType))
		mask := orderKeyOf(m.DType).mask
		for i := range m.Bits {
			switch src.Intn(8) {
			case 0:
				m.Bits[i] |= src.Uint32() &^ mask
			case 1:
				if ties {
					m.Bits[i] = uint32(src.Intn(4))
				}
			}
		}
	}
	for _, dt := range ExtendedDTypes {
		for kind := range numSortKinds {
			for _, sh := range []shape{{512, 512}, {128, 128}, {127, 129}, {1, countingMin + 7}, {countingMin - 1, 1}} {
				for i, frac := range []float64{0.5, 1, 0.3} {
					if sh.rows == 512 && i > 0 {
						continue
					}
					t.Run(fmt.Sprintf("%v/%v/%dx%d/%v", dt, kind, sh.rows, sh.cols, frac), func(t *testing.T) {
						m := New(dt, sh.rows, sh.cols)
						fill(m, uint64(dt)*7+uint64(kind), i == 2)
						checkAgainstReference(t, m, kind, frac)
					})
				}
			}
			t.Run(fmt.Sprintf("%v/%v/constant", dt, kind), func(t *testing.T) {
				m := New(dt, 64, 48)
				src := rng.New(5)
				for i := range m.Bits {
					m.Bits[i] = 0x3C | src.Uint32()&^orderKeyOf(dt).mask
				}
				checkAgainstReference(t, m, kind, 0.5)
			})
		}
	}
}

// TestPartialSortConcurrent sorts from several goroutines at once, so
// the race detector sees the pooled scratch handed between callers.
func TestPartialSortConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				m, kind, frac := decodeSortCase([]byte{byte(g + i), byte(i), byte(7 * i), byte(5*g + i), byte(i)})
				want := m.Clone()
				refSort(want, kind, frac)
				kind.apply(m, frac)
				if !m.Equal(want) {
					t.Errorf("goroutine %d case %d: %v %dx%d %v frac=%v differs from the reference",
						g, i, m.DType, m.Rows, m.Cols, kind, frac)
				}
			}
		}()
	}
	wg.Wait()
}

// TestOrderKeyMatchesReference checks the inline key against the
// reference per-datatype key functions on every 16-bit pattern and on
// random 32-bit words, including bits above the width.
func TestOrderKeyMatchesReference(t *testing.T) {
	src := rng.New(11)
	for _, dt := range ExtendedDTypes {
		key, ref := orderKeyOf(dt), orderKeyFn(dt)
		for b := uint32(0); b <= 0xFFFF; b++ {
			w := b | src.Uint32()<<16
			for _, x := range []uint32{b, w, src.Uint32()} {
				if got, want := key.of(x), ref(x); got != want {
					t.Fatalf("%v: key(%#x) = %#x, reference %#x", dt, x, got, want)
				}
			}
		}
	}
}
