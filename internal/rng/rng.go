// Package rng provides the deterministic random number generation used
// throughout the reproduction. Every experiment in the paper is averaged
// over 10 seeds with the A and B matrices drawn from different seeds;
// reproducibility therefore demands a splittable, stable generator that
// does not depend on Go release-to-release changes in math/rand.
//
// The core generator is xoshiro256** seeded through splitmix64, the
// combination recommended by the xoshiro authors. Gaussian variates use
// a 256-layer ziggurat: matrix generation is the dominant cost of a
// figure campaign, and the ziggurat's fast path needs one 64-bit draw
// and two multiplies per variate where the polar Box–Muller transform
// needed a log and a sqrt per pair.
package rng

import "math"

// splitmix64 advances the given state and returns the next output.
// It is used only for seeding, per the xoshiro reference material.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256** generator.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// yield decorrelated streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// A pathological all-zero state cannot occur because splitmix64 is a
	// bijection composed with xors, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9E3779B97F4A7C15
	}
	return &src
}

// Derive returns a new Source whose stream is a deterministic function
// of the parent seed and the given stream label. Experiments use this to
// give the A matrix, B matrix, noise model, and sampler independent
// streams from a single experiment seed.
func Derive(seed uint64, stream string) *Source {
	h := seed
	for _, c := range []byte(stream) {
		h ^= uint64(c)
		h *= 0x100000001B3 // FNV-1a prime
	}
	return New(h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Fill writes the next len(dst) outputs of the stream to dst, exactly
// what len(dst) calls to Uint64 would return. The state stays in
// registers across the loop, where each Uint64 call (beyond the
// inliner's budget) loads and stores it.
func (s *Source) Fill(dst []uint64) {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	s.s = [4]uint64{s0, s1, s2, s3}
}

// Uint32 returns the next 32 uniformly distributed bits.
// Only tests call it, to draw raw bit patterns (TestUint32HighBits,
// FuzzBitFlipsMatchesReference).
func (s *Source) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Plain modulo reduction of one draw: the bias is below n/2⁶⁴,
	// negligible for the sizes used here. Every pinned output depends
	// on this stream, so it stays as is.
	return int(s.Uint64() % uint64(n))
}

// Ziggurat tables for the standard normal distribution (Marsaglia–Tsang
// layout with 256 layers, Doornik's double-precision formulation).
// zigX[i] is the right edge of layer i (decreasing, zigX[256] = 0),
// zigF[i] = exp(-x²/2) at that edge, and zigXScale[i] = zigX[i]·2⁻⁵³
// maps a 53-bit integer uniform directly onto [0, zigX[i]) with one
// multiply. 256 layers keep the slow wedge/tail paths below ~1% of
// draws.
const (
	zigR = 3.6541528853610088 // right edge of the base layer
	zigV = 4.92867323399e-3   // area of each layer
)

var (
	zigX, zigF [257]float64
	zigXScale  [256]float64
)

func init() {
	zigX[0] = zigV / math.Exp(-0.5*zigR*zigR)
	zigX[1] = zigR
	for i := 2; i < 256; i++ {
		zigX[i] = math.Sqrt(-2 * math.Log(zigV/zigX[i-1]+math.Exp(-0.5*zigX[i-1]*zigX[i-1])))
	}
	zigX[256] = 0
	for i := range zigX {
		zigF[i] = math.Exp(-0.5 * zigX[i] * zigX[i])
	}
	for i := range zigXScale {
		zigXScale[i] = zigX[i] / (1 << 53)
	}
}

// NormFloat64 returns a standard Gaussian variate (mean 0, stddev 1)
// using the 256-layer ziggurat. One Uint64 supplies the layer index
// (bits 0–7), the sign (bit 8), and a 53-bit uniform magnitude
// (bits 11–63); ~99% of calls return from that single draw with one
// multiply and one compare.
func (s *Source) NormFloat64() float64 {
	for {
		// xoshiro256** step, manually unrolled: Uint64 is beyond the
		// inliner's budget and this is the hottest call site in the
		// repository (matrix generation draws one variate per element).
		u64 := rotl(s.s[1]*5, 7) * 9
		t := s.s[1] << 17
		s.s[2] ^= s.s[0]
		s.s[3] ^= s.s[1]
		s.s[1] ^= s.s[2]
		s.s[0] ^= s.s[3]
		s.s[2] ^= t
		s.s[3] = rotl(s.s[3], 45)

		i := int(u64 & 0xFF)
		x := float64(u64>>11) * zigXScale[i]
		if x < zigX[i+1] {
			// Inside the all-accept rectangle of layer i.
			if u64&0x100 != 0 {
				return -x
			}
			return x
		}
		if v, ok := s.normSlow(u64, x); ok {
			return v
		}
	}
}

// normSlow finishes a draw u64 whose magnitude x fell outside its
// layer's rectangle: the tail beyond R for the base layer, else the
// wedge test. ok is false when the wedge rejects x, and the variate
// then comes from a fresh draw.
func (s *Source) normSlow(u64 uint64, x float64) (v float64, ok bool) {
	i := int(u64 & 0xFF)
	if i == 0 {
		// Tail beyond R: Marsaglia's exponential-rejection sampler.
		neg := u64&0x100 != 0
		for {
			x := -math.Log(1-s.Float64()) / zigR
			y := -math.Log(1 - s.Float64())
			if y+y >= x*x {
				if neg {
					return -(zigR + x), true
				}
				return zigR + x, true
			}
		}
	}
	// Wedge between the rectangle and the density curve.
	if zigF[i]+s.Float64()*(zigF[i+1]-zigF[i]) < math.Exp(-0.5*x*x) {
		if u64&0x100 != 0 {
			return -x, true
		}
		return x, true
	}
	return 0, false
}

// FillNorm writes the next len(dst) standard Gaussian variates to dst:
// exactly what len(dst) calls to NormFloat64 would return, leaving the
// stream where they would. The state stays in registers across the
// fast path, as in Fill; a draw outside its layer's rectangle stores
// it and finishes through NormFloat64's wedge and tail code.
//
// The fast path sets the sign by OR-ing the draw's bit 8 into bit 63.
// Its magnitude x = float64(u64>>11)·zigXScale[i] is +0 or positive,
// so that equals NormFloat64's -x bit for bit, ±0 included.
func (s *Source) FillNorm(dst []float64) {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for i := range dst {
		u64 := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)

		l := u64 & 0xFF
		x := float64(u64>>11) * zigXScale[l]
		if x < zigX[l+1] {
			dst[i] = math.Float64frombits(math.Float64bits(x) | (u64&0x100)<<55)
			continue
		}
		s.s = [4]uint64{s0, s1, s2, s3}
		v, ok := s.normSlow(u64, x)
		if !ok {
			v = s.NormFloat64()
		}
		dst[i] = v
		s0, s1, s2, s3 = s.s[0], s.s[1], s.s[2], s.s[3]
	}
	s.s = [4]uint64{s0, s1, s2, s3}
}

// Gaussian returns a Gaussian variate with the given mean and standard
// deviation.
func (s *Source) Gaussian(mean, std float64) float64 {
	return mean + std*s.NormFloat64()
}

// Perm returns a uniformly random permutation of [0, n) via
// Fisher–Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomly permutes the first n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
