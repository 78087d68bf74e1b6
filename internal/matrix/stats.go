package matrix

import (
	"math"

	"repro/internal/bitops"
	"repro/internal/softfloat"
)

// Bit-level aggregate statistics over matrices. The chain computes its
// own in activity's fused scans; tests use these bit statistics as
// independent references.

// MeanHammingWeight returns the average number of set bits per element
// over the datatype's storage width. Only tests call it: activity's
// TestHammingWeightsReported and TestMeanHammingWeight.
func (m *Matrix) MeanHammingWeight() float64 {
	return bitops.MeanHamming(m.Bits, m.DType.Width())
}

// MeanSignificandWeight returns the average Hamming weight of the
// arithmetic significand (with hidden bit for FP, magnitude for INT8),
// the quantity that drives multiplier-array activity. Only
// TestMeanSignificandWeight calls it.
func (m *Matrix) MeanSignificandWeight() float64 {
	if len(m.Bits) == 0 {
		return 0
	}
	var sum int64
	switch m.DType {
	case FP32:
		for _, b := range m.Bits {
			sum += int64(bitops.Popcount32(softfloat.Significand32(b)))
		}
	case FP16, FP16T:
		for _, b := range m.Bits {
			sum += int64(bitops.Popcount32(softfloat.Significand16(uint16(b))))
		}
	case BF16T:
		for _, b := range m.Bits {
			sum += int64(bitops.Popcount32(softfloat.SignificandBF16(uint16(b))))
		}
	case INT8:
		for _, b := range m.Bits {
			sum += int64(bitops.Popcount32(softfloat.I8Magnitude(int8(uint8(b)))))
		}
	}
	return float64(sum) / float64(len(m.Bits))
}

// MeanAlignmentWith returns the average bit alignment (§IV-F) between
// corresponding elements of m and o: 1 when all bits agree, 0 when all
// differ. Shapes and dtypes must match. Only TestMeanAlignmentWith
// calls it.
func (m *Matrix) MeanAlignmentWith(o *Matrix) float64 {
	if m.DType != o.DType || m.Rows != o.Rows || m.Cols != o.Cols {
		panic("matrix: MeanAlignmentWith shape or dtype mismatch")
	}
	return bitops.MeanAlignment(m.Bits, o.Bits, m.DType.Width())
}

// MeanRowToggle returns the average per-bit toggle rate between
// horizontally adjacent elements, i.e. the switching activity a bus
// would see streaming the matrix row-major. The result is normalized to
// [0, 1] per bit lane. Only tests call it: TestSortingReducesRowToggle
// and patterns' TestSortedKinds.
func (m *Matrix) MeanRowToggle() float64 {
	width := m.DType.Width()
	var sum int64
	var pairs int64
	for i := 0; i < m.Rows; i++ {
		sum += bitops.ToggleSum32(m.Row(i))
		pairs += int64(m.Cols - 1)
	}
	if pairs == 0 {
		return 0
	}
	return float64(sum) / float64(pairs) / float64(width)
}

// ValueStats returns the mean and standard deviation of the decoded
// values.
func (m *Matrix) ValueStats() (mean, std float64) {
	n := float64(len(m.Bits))
	if n == 0 {
		return 0, 0
	}
	var sum, sumSq float64
	for _, b := range m.Bits {
		v := m.DType.Decode(b)
		sum += v
		sumSq += v * v
	}
	mean = sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}
