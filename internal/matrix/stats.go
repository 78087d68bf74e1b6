package matrix

import (
	"math"

	"repro/internal/bitops"
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
