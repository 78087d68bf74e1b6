package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

// The digests below were recorded before the measurement chain was
// consolidated. %v prints a float64 in its shortest round-trip form,
// so a digest matches only if every float matches bit for bit.

// TestTrainingSamplesPinnedBits pins the serving layer's training
// sweep, sample by sample.
func TestTrainingSamplesPinnedBits(t *testing.T) {
	cfg := TrainingConfig{
		Sizes:         []int{32, 48},
		Patterns:      []string{"gaussian(default)", "constant(random)", "gaussian(default) | sparsify(50%)"},
		SampleOutputs: 32,
		Seed:          3,
	}
	cases := []struct {
		dt     matrix.DType
		digest uint64
	}{
		{matrix.FP16T, 0x018f985a1eba18cf},
		{matrix.INT8, 0x64772fc4eb1cbaae},
	}
	for _, c := range cases {
		t.Run(c.dt.String(), func(t *testing.T) {
			samples, err := TrainingSamples(device.A100PCIe(), c.dt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", samples)
			if got := h.Sum64(); got != c.digest {
				t.Errorf("samples digest = %#x, want %#x", got, c.digest)
			}
		})
	}
}

// TestRunPinnedBits pins reduced figure panels cell by cell: one with
// B in normal storage at the per-dtype default tiles, one with Bᵀ and
// a tile override. Both include FP16 and FP16-T, which share one base
// matrix per (seed, side) but differ in tile and power coefficients.
// The placement and bit-sparsity panels cover the partial sorts (row-
// and column-major walks, within-row sorts, a sort followed by
// sparsity) and zero-LSB/MSB steps right after generation. The
// value-set and bit-similarity panels cover set generation, both bit-
// flip paths (geometric below p = ¼, dense above) and the LSB/MSB
// randomizations.
func TestRunPinnedBits(t *testing.T) {
	cases := []struct {
		id     string
		tile   kernels.TileConfig
		digest uint64
	}{
		{"fig5a", kernels.TileConfig{}, 0xfbabed2fa161a078},
		{"fig6a", kernels.TileConfig{BlockM: 32, BlockN: 32, BlockK: 16}, 0xb00dc49a99e61128},
		{"fig5c", kernels.TileConfig{}, 0x67132a9a13b420a2},
		{"fig5d", kernels.TileConfig{}, 0xd42005d8d87e0d81},
		{"fig6b", kernels.TileConfig{BlockM: 32, BlockN: 32, BlockK: 16}, 0x92f4d459c214155b},
		{"fig6c", kernels.TileConfig{}, 0x560581eead7d0166},
		{"fig3c", kernels.TileConfig{}, 0x7082df442386dbf1},
		{"fig4a", kernels.TileConfig{}, 0x934adf9ac18fcbf3},
		{"fig4b", kernels.TileConfig{}, 0x22f920f1118f451b},
		{"fig4c", kernels.TileConfig{BlockM: 32, BlockN: 32, BlockK: 16}, 0x38885c03c0771dc1},
		{"fig6d", kernels.TileConfig{}, 0x3d27fe0b62202f},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			cfg := Config{
				Device:        device.A100PCIe(),
				Size:          64,
				DTypes:        []matrix.DType{matrix.FP32, matrix.FP16, matrix.FP16T, matrix.INT8},
				Seeds:         2,
				SampleOutputs: 32,
				VMInstance:    1,
				Tile:          c.tile,
			}
			fr, err := Run(panel(t, c.id), cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, dt := range cfg.DTypes {
				fmt.Fprintf(h, "%v %+v\n", dt, fr.Series[dt])
			}
			if got := h.Sum64(); got != c.digest {
				t.Errorf("panel digest = %#x, want %#x", got, c.digest)
			}
		})
	}
}
