package softfloat

import "math/bits"

// Precomputed 65,536-entry lookup tables over every 16-bit pattern.
// The simulation hot paths (kernels GEMM inner loops, activity
// significand sums, matrix statistics) decode each element and weigh
// its significand once per MAC or per element; table lookups replace
// the branchy field extraction those paths used to perform per call.
//
// The tables are built at init time from the bit-exact conversion
// routines in this package, so table-backed and computed results are
// identical by construction (and verified exhaustively in lut_test.go).
var (
	f16DecodeLUT  [1 << 16]float32
	sig16PopLUT   [1 << 16]uint8
	sigBF16PopLUT [1 << 16]uint8
	// magI8PopWideLUT indexes the INT8 magnitude weight by a 16-bit
	// pattern so the 8-bit lane can share the 16-bit scan loops (INT8
	// patterns only ever occupy the low byte).
	magI8PopWideLUT [1 << 16]uint8
)

func init() {
	for i := range f16DecodeLUT {
		h := uint16(i)
		f16DecodeLUT[i] = f16ToF32Compute(h)
		sig16PopLUT[i] = uint8(bits.OnesCount32(Significand16(h)))
		sigBF16PopLUT[i] = uint8(bits.OnesCount32(SignificandBF16(h)))
		magI8PopWideLUT[i] = uint8(bits.OnesCount32(I8Magnitude(int8(uint8(i)))))
	}
}

// SigPop32 returns the Hamming weight of the binary32 significand
// (hidden bit included for normal numbers).
func SigPop32(b uint32) int { return bits.OnesCount32(Significand32(b)) }

// SigPop16Table exposes the binary16 significand-weight table for hot
// loops that index it directly: entry h is the Hamming weight of
// Significand16(h).
func SigPop16Table() *[1 << 16]uint8 { return &sig16PopLUT }

// SigPopBF16Table exposes the bfloat16 significand-weight table.
func SigPopBF16Table() *[1 << 16]uint8 { return &sigBF16PopLUT }

// MagPopI8WideTable exposes the INT8 magnitude-weight table at 16-bit
// indexing, for loops shared with the 16-bit formats: entry h is the
// Hamming weight of I8Magnitude of h's low byte.
func MagPopI8WideTable() *[1 << 16]uint8 { return &magI8PopWideLUT }
