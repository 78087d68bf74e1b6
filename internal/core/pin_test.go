package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/patterns"
)

// measurementDigest hashes every numeric field of a measurement. %v
// prints a float64 in its shortest round-trip form, so two digests
// agree only if every float agrees bit for bit.
func measurementDigest(m *Measurement) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v %v %v %v %v %v %v %+v %+v %v",
		m.AvgPowerW, m.ModelPowerW, m.IterTimeS, m.EnergyPerIterJ, m.BusyFrac,
		m.Throttled, m.SteadyTempC, *m.Activity, m.Breakdown, m.Features)
	return h.Sum64()
}

// TestMeasurePatternPinnedBits pins the measurement chain's exact
// output for each datatype class with Bᵀ storage, normal storage and a
// tile override. The values were recorded before the chain was
// consolidated; any drift is a behavioural change, not noise.
func TestMeasurePatternPinnedBits(t *testing.T) {
	small := kernels.TileConfig{BlockM: 32, BlockN: 32, BlockK: 16}
	cases := []struct {
		name       string
		dt         matrix.DType
		transposeB bool
		tile       kernels.TileConfig
		avgBits    uint64
		digest     uint64
	}{
		{"FP32/Bt", matrix.FP32, true, kernels.TileConfig{}, 0x404aa8fff9afc944, 0xbfa977ae2c275b47},
		{"FP32/B", matrix.FP32, false, kernels.TileConfig{}, 0x404aa8d785bffdae, 0xea6e0b1e6574da3c},
		{"FP32/tile", matrix.FP32, true, small, 0x404c99997a589bed, 0x2d1b851b95653c47},
		{"FP16-T/Bt", matrix.FP16T, true, kernels.TileConfig{}, 0x404a6dc5e45c6fef, 0x5d5c8e28be45d395},
		{"FP16-T/B", matrix.FP16T, false, kernels.TileConfig{}, 0x404a6db8e3ba36b8, 0x48f4a1765d2f6ba9},
		{"FP16-T/tile", matrix.FP16T, true, small, 0x404a8d4b53c3f1e0, 0xf402bd49d7ea538d},
		{"INT8/Bt", matrix.INT8, true, kernels.TileConfig{}, 0x404a8ea0a0361fff, 0x7a7c7921bcf08842},
		{"INT8/B", matrix.INT8, false, kernels.TileConfig{}, 0x404a8e787c938c7a, 0xaf38992a82570054},
		{"INT8/tile", matrix.INT8, true, small, 0x404b0967c1b1752d, 0xede32468c9a103b5},
	}
	s := sim(t)
	pat := patterns.MustParse("gaussian(default) | sparsify(25%)")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := s.MeasurePattern(c.dt, 96, pat, Options{
				TransposeB: c.transposeB, Tile: c.tile,
				SampleOutputs: 64, Seed: 7, VMInstance: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(m.AvgPowerW); got != c.avgBits {
				t.Errorf("AvgPowerW = %v (bits %#x), want bits %#x", m.AvgPowerW, got, c.avgBits)
			}
			if got := measurementDigest(m); got != c.digest {
				t.Errorf("measurement digest = %#x, want %#x", got, c.digest)
			}
		})
	}
}
