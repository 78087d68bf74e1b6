package kernels

import (
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/rng"
)

func TestDefaultTiles(t *testing.T) {
	for _, dt := range matrix.DTypes {
		tile := DefaultTile(dt)
		if err := tile.Validate(); err != nil {
			t.Errorf("%v: %v", dt, err)
		}
	}
	if DefaultTile(matrix.FP16T).BlockK != 64 {
		t.Error("tensor-core tile should stage a 64-deep k slice")
	}
}

func TestTileValidate(t *testing.T) {
	if err := (TileConfig{0, 1, 1}).Validate(); err == nil {
		t.Error("expected error for zero dim")
	}
}

func TestNumTiles(t *testing.T) {
	tile := TileConfig{BlockM: 128, BlockN: 128, BlockK: 32}
	if got := tile.NumTiles(2048, 2048); got != 256 {
		t.Errorf("2048²/128² = %d tiles, want 256", got)
	}
	if got := tile.NumTiles(129, 128); got != 2 {
		t.Errorf("ragged edge should round up: got %d, want 2", got)
	}
}

func TestWavesAndUtilization(t *testing.T) {
	// The paper's primary configuration: 256 tiles on 108 A100 SMs.
	if Waves(256, 108) != 3 {
		t.Errorf("waves = %d, want 3", Waves(256, 108))
	}
	u := Utilization(256, 108)
	want := (2.0 + 40.0/108.0) / 3.0
	if math.Abs(u-want) > 1e-12 {
		t.Errorf("utilization = %v, want %v", u, want)
	}
	// 4096² has 1024 tiles: far better wave packing, the reason it runs
	// hotter and throttles.
	if Utilization(1024, 108) <= u {
		t.Error("4096² should pack waves better than 2048²")
	}
	if Utilization(108, 108) != 1 {
		t.Error("exactly one full wave should be 100% utilized")
	}
	if Utilization(0, 108) != 0 || Waves(0, 108) != 0 {
		t.Error("zero tiles should have zero waves and utilization")
	}
}

// randProblem builds a Gaussian-filled problem.
func randProblem(t *testing.T, dt matrix.DType, n, k, m int, seed uint64, std float64) *Problem {
	t.Helper()
	a := matrix.New(dt, n, k)
	b := matrix.New(dt, k, m)
	matrix.FillGaussian(a, rng.Derive(seed, "A"), 0, std)
	matrix.FillGaussian(b, rng.Derive(seed, "B"), 0, std)
	return NewProblem(dt, a, b)
}

func TestProblemValidate(t *testing.T) {
	p := randProblem(t, matrix.FP32, 8, 16, 8, 1, 210)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Inner dim mismatch.
	bad := NewProblem(matrix.FP32, matrix.New(matrix.FP32, 8, 16), matrix.New(matrix.FP32, 17, 8))
	if err := bad.Validate(); err == nil {
		t.Error("expected inner-dimension error")
	}
	// DType mismatch.
	bad2 := NewProblem(matrix.FP32, matrix.New(matrix.FP16, 8, 16), matrix.New(matrix.FP32, 16, 8))
	if err := bad2.Validate(); err == nil {
		t.Error("expected dtype error")
	}
}

func TestMACs(t *testing.T) {
	p := randProblem(t, matrix.FP32, 8, 16, 32, 1, 210)
	if p.MACs() != 8*16*32 {
		t.Errorf("MACs = %d", p.MACs())
	}
}

func TestSelectTile(t *testing.T) {
	// Large outputs keep the dtype default.
	if got := SelectTile(matrix.FP16T, 2048, 2048); got != DefaultTile(matrix.FP16T) {
		t.Errorf("large output should use the default tile, got %+v", got)
	}
	// Skinny outputs shrink the matching dimension to a power of two.
	got := SelectTile(matrix.FP16T, 8, 4096)
	if got.BlockM != 8 || got.BlockN != 128 {
		t.Errorf("batch-8 tile = %+v, want 8x128", got)
	}
	got = SelectTile(matrix.FP32, 100, 100)
	if got.BlockM != 128 || got.BlockN != 128 {
		t.Errorf("dims within one default tile keep it: %+v", got)
	}
	got = SelectTile(matrix.FP32, 1, 1)
	if got.BlockM != 8 || got.BlockN != 8 {
		t.Errorf("minimum tile is 8x8, got %+v", got)
	}
	if got := SelectTile(matrix.INT8, 33, 64); got.BlockM != 64 || got.BlockN != 64 {
		t.Errorf("33 rows should round up to a 64 block, got %+v", got)
	}
}
