// Package bitops provides the bit-level primitives underlying the
// input-dependent power model: population counts (Hamming weights),
// toggle distances (XOR popcounts between consecutive datapath values)
// and lane masks.
//
// The paper's causal hypothesis (§V) is that GPU power draw depends on
// inputs through the number of bit flips during computation and on how
// many bits are set. Everything in this package is a pure function over
// raw bit patterns; datatype interpretation (sign/exponent/mantissa
// splits) lives in internal/softfloat.
package bitops

import "math/bits"

// Popcount32 returns the number of set bits in v.
func Popcount32(v uint32) int { return bits.OnesCount32(v) }

// Toggle32 returns the number of bit positions that differ between a
// and b, i.e. the switching activity a 32-bit bus lane experiences when
// its value transitions from a to b.
func Toggle32(a, b uint32) int { return bits.OnesCount32(a ^ b) }

// ToggleSum32 returns the total switching activity of a 32-bit lane that
// streams the values in vs in order: the sum of XOR popcounts between
// each consecutive pair. An empty or single-element stream has zero
// activity.
func ToggleSum32(vs []uint32) int64 {
	var sum int64
	for i := 1; i < len(vs); i++ {
		sum += int64(bits.OnesCount32(vs[i-1] ^ vs[i]))
	}
	return sum
}

// MeanHamming returns the average Hamming weight of the stream over the
// given lane width. It returns 0 for an empty stream.
func MeanHamming(vs []uint32, width int) float64 {
	if len(vs) == 0 {
		return 0
	}
	mask := uint32(1)<<uint(width) - 1
	if width >= 32 {
		mask = ^uint32(0)
	}
	var sum int64
	for _, v := range vs {
		sum += int64(bits.OnesCount32(v & mask))
	}
	return float64(sum) / float64(len(vs))
}

// LowMask returns a mask with the low n bits set (n clamped to [0,32]).
func LowMask(n int) uint32 {
	if n <= 0 {
		return 0
	}
	if n >= 32 {
		return ^uint32(0)
	}
	return uint32(1)<<uint(n) - 1
}

// HighMask returns a mask with the high n bits of a width-bit lane set.
func HighMask(n, width int) uint32 {
	if n <= 0 {
		return 0
	}
	if n > width {
		n = width
	}
	return LowMask(width) &^ LowMask(width-n)
}
