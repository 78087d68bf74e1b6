package experiments

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/matrix"
)

func TestTrainingSamplesDeterministicOrder(t *testing.T) {
	// The sweep fans out to workers; the sample slice must still come
	// back in sweep order regardless of scheduling.
	dev := device.A100PCIe()
	cfg := DefaultTraining()
	a, err := TrainingSamples(dev, matrix.FP16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.Sizes) * len(cfg.Patterns); len(a) != want {
		t.Fatalf("got %d samples, want %d", len(a), want)
	}
	cfg.Workers = 1
	b, err := TrainingSamples(dev, matrix.FP16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs between parallel and serial sweeps", i)
		}
	}
}

func TestTrainPredictorFitsSweep(t *testing.T) {
	pred, r2, _, err := TrainPredictor(device.A100PCIe(), matrix.FP16, DefaultTraining())
	if err != nil {
		t.Fatal(err)
	}
	if pred == nil {
		t.Fatal("nil predictor")
	}
	if r2 < 0.999 {
		t.Errorf("in-sample R² = %v, want ≈1 (model is linear)", r2)
	}
	// The intercept approximates the device's static floor.
	if w0 := pred.Weights[0]; math.Abs(w0-55) > 25 {
		t.Errorf("intercept %v W far from the A100 idle floor", w0)
	}
}

func TestTrainingSamplesRejectsBadPattern(t *testing.T) {
	cfg := DefaultTraining()
	cfg.Patterns = []string{"nonsense(1)"}
	if _, err := TrainingSamples(device.A100PCIe(), matrix.FP16, cfg); err == nil {
		t.Error("expected error for an unparseable pattern")
	}
}

func TestTrainingSamplesRejectsBadDevice(t *testing.T) {
	bad := *device.A100PCIe()
	bad.SMCount = 0
	if _, err := TrainingSamples(&bad, matrix.FP16, DefaultTraining()); err == nil {
		t.Error("expected device validation error")
	}
}
