package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
)

// TestSimulatePinnedBits pins Simulate's exact output, the chain every
// /predict miss and the offline fleet oracle run. The values were
// recorded before the chain was consolidated; any drift changes served
// numbers.
func TestSimulatePinnedBits(t *testing.T) {
	cases := []struct {
		dt      matrix.DType
		pattern string
		size    int
		avgBits uint64
		digest  uint64
	}{
		{matrix.FP32, "gaussian(default)", 64, 0x404bb2815f5d14cb, 0xd088b5fdec791683},
		{matrix.FP16, "gaussian(default) | sparsify(50%)", 96, 0x404bcc5c794dd5ba, 0x1ed5f7e0f12c14d1},
		{matrix.FP16T, "constant(random)", 96, 0x404ba0527b80156e, 0xf256d0890f4e5eec},
		{matrix.INT8, "gaussian(default) | sort(rows, 100%)", 64, 0x404b98fde11b4f56, 0x0f84fef23582bac5},
		{matrix.FP32, "gaussian(default) | sort(cols, 25%)", 64, 0x404bb1da95cb746e, 0x32c01f94b1db9b2b},
		{matrix.FP16, "gaussian(default) | sort(withinrows, 50%)", 96, 0x404bd41674b64171, 0xbf9ec9a9dc3f926c},
	}
	dev := device.A100PCIe()
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/%s/%d", c.dt, c.pattern, c.size), func(t *testing.T) {
			rep, res, err := Simulate(dev, c.dt, patterns.MustParse(c.pattern), c.size, 64)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(res.AvgPowerW); got != c.avgBits {
				t.Errorf("AvgPowerW = %v (bits %#x), want bits %#x", res.AvgPowerW, got, c.avgBits)
			}
			// %v prints a float64 in its shortest round-trip form, so
			// the digest pins every field bit for bit.
			r := *res
			r.Device = nil
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v %+v", *rep, r)
			if got := h.Sum64(); got != c.digest {
				t.Errorf("report/result digest = %#x, want %#x", got, c.digest)
			}
		})
	}
}
