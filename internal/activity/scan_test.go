package activity

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/bitops"
	"repro/internal/matrix"
	"repro/internal/rng"
)

// refScan is the definition ScanA (colStream false) and ScanB
// (colStream true) implement, one element at a time: its significand
// weight into its k-slice (column for the row stream, row for the
// column stream), its Hamming weight over the lane width, whether it is
// non-zero, and its toggles against the stream's previous element.
func refScan(m *matrix.Matrix, colStream bool) *OperandStats {
	sig := sigWeight(m.DType)
	hmask := bitops.LowMask(m.DType.Width())
	st := &OperandStats{Sig: make([]int64, m.Cols)}
	if colStream {
		st.Sig = make([]int64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			b := m.At(i, j)
			slice := j
			if colStream {
				slice = i
			}
			st.Sig[slice] += sig(b)
			st.Hamming += int64(bitops.Popcount32(b & hmask))
			if b != 0 {
				st.NonZero++
			}
			switch {
			case !colStream && j > 0:
				st.Toggles += int64(bitops.Toggle32(m.At(i, j-1), b))
			case colStream && i > 0:
				st.Toggles += int64(bitops.Toggle32(m.At(i-1, j), b))
			}
		}
	}
	return st
}

// deltaStep is one tracked transform of a fuzzed chain.
type deltaStep struct {
	sparsify bool    // false: bit flips
	rate     float64 // flip probability or sparsified fraction
}

func (s deltaStep) apply(m *matrix.Matrix, src *rng.Source) ([]int32, bool) {
	if s.sparsify {
		return matrix.SparsifyTouched(m, src, s.rate)
	}
	return matrix.RandomBitFlipsTouched(m, src, s.rate)
}

func (s deltaStep) String() string {
	if s.sparsify {
		return fmt.Sprintf("sparsify(%g)", s.rate)
	}
	return fmt.Sprintf("flip(%g)", s.rate)
}

// decodeDeltaCase turns fuzz bytes into a base matrix and a chain of
// up to four steps. Byte 0 picks the datatype and bytes 1–2 the shape
// (1–24 each). Byte 3 picks the fill: random words within the lane
// width (NaN, infinity and subnormal patterns included), the paper's
// Gaussian, or words from a four-entry table that holds zero, so
// elements repeat and sparsify meets zeros. Bytes 4–11 seed the fill
// and the chain's stream. Each later pair of bytes is one step: the
// first byte's low bit picks bit flips or sparsify, the second its
// rate, spread so that both tracked and untracked rates occur.
func decodeDeltaCase(data []byte) (base *matrix.Matrix, steps []deltaStep, seed uint64) {
	var head [12]byte
	copy(head[:], data)
	data = data[min(len(data), len(head)):]
	dt := matrix.ExtendedDTypes[int(head[0])%len(matrix.ExtendedDTypes)]
	rows, cols := 1+int(head[1])%24, 1+int(head[2])%24
	seed = binary.LittleEndian.Uint64(head[4:])
	src := rng.Derive(seed, "base")
	base = matrix.New(dt, rows, cols)
	mask := bitops.LowMask(dt.Width())
	switch head[3] % 3 {
	case 0:
		for i := range base.Bits {
			base.Bits[i] = src.Uint32() & mask
		}
	case 1:
		matrix.FillGaussian(base, src, 0, matrix.DefaultStd(dt))
	default:
		table := [4]uint32{0, src.Uint32() & mask, src.Uint32() & mask, src.Uint32() & mask}
		for i := range base.Bits {
			base.Bits[i] = table[src.Intn(len(table))]
		}
	}
	for len(data) >= 2 && len(steps) < 4 {
		r := float64(data[1]) / 255
		step := deltaStep{sparsify: data[0]&1 == 1, rate: r * r * r * r / 2}
		if step.sparsify {
			step.rate = r / 4
		}
		steps = append(steps, step)
		data = data[2:]
	}
	return base, steps, seed
}

// FuzzDeltaScanMatchesRescan holds the incremental scans to the full
// rescans, and the rescans to refScan: a base matrix of any datatype
// and shape up to 24×24 goes through a chain of tracked bit flips and
// sparsify steps, as a pattern's DeltaTransform runs them. When the
// chain reports its touched positions, DeltaRowScan and DeltaColScan
// from the base's stats must equal ScanA and ScanB of the result,
// field for field, unless they decline a dense touch set.
func FuzzDeltaScanMatchesRescan(f *testing.F) {
	for dt := range matrix.ExtendedDTypes {
		f.Add([]byte{byte(dt), 17, 9, byte(dt), 1, 2, 3, 4, 5, 6, 7, 8, 0, 40, 1, 60})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		base, steps, seed := decodeDeltaCase(data)
		ctx := fmt.Sprintf("%v %dx%d seed %#x %v", base.DType, base.Rows, base.Cols, seed, steps)
		statsEqual(t, ctx+": ScanA(base)", ScanA(base), refScan(base, false))
		statsEqual(t, ctx+": ScanB(base)", ScanB(base), refScan(base, true))

		cur := base.Clone()
		src := rng.Derive(seed, "chain")
		var touched []int32
		tracked := true
		for _, s := range steps {
			tt, ok := s.apply(cur, src)
			touched = append(touched, tt...)
			tracked = tracked && ok
		}
		rowWant, colWant := ScanA(cur), ScanB(cur)
		statsEqual(t, ctx+": ScanA", rowWant, refScan(cur, false))
		statsEqual(t, ctx+": ScanB", colWant, refScan(cur, true))
		if !tracked {
			return
		}
		if got := ScanA(base).DeltaRowScan(base, cur, touched); got != nil {
			statsEqual(t, ctx+": DeltaRowScan", got, rowWant)
		}
		if got := ScanB(base).DeltaColScan(base, cur, touched); got != nil {
			statsEqual(t, ctx+": DeltaColScan", got, colWant)
		}
	})
}

// BenchmarkScan times the two full operand rescans, ScanA (row
// stream) and ScanB (column stream), on one 512² Gaussian FP16 operand
// with half its elements zeroed, as Fig. 6a's denser points rescan
// theirs.
func BenchmarkScan(b *testing.B) {
	m := matrix.New(matrix.FP16, 512, 512)
	matrix.FillGaussian(m, rng.New(1), 0, 210)
	matrix.Sparsify(m, rng.New(2), 0.5)
	for _, c := range []struct {
		name string
		scan func(*matrix.Matrix) *OperandStats
	}{{"A", ScanA}, {"B", ScanB}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.scan(m)
			}
		})
	}
}
