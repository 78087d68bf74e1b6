package main

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/matrix"
	"repro/internal/sched"
)

func TestDigestPredictionIgnoresCached(t *testing.T) {
	miss := []byte(`{"device":"A100-PCIe-40GB","predicted_w":101.5,"features":{"a":1},"cached":false}` + "\n")
	hit := []byte(`{"device":"A100-PCIe-40GB","predicted_w":101.5,"features":{"a":1},"cached":true}`)
	other := []byte(`{"device":"A100-PCIe-40GB","predicted_w":101.25,"features":{"a":1},"cached":true}`)
	dm, cm, ok1 := digestPrediction(miss)
	dh, ch, ok2 := digestPrediction(hit)
	do, _, _ := digestPrediction(other)
	if !ok1 || !ok2 || cm || !ch {
		t.Fatalf("flags: miss cached=%v ok=%v, hit cached=%v ok=%v", cm, ok1, ch, ok2)
	}
	if dm != dh {
		t.Error("digest depends on the cached flag")
	}
	if do == dh {
		t.Error("digest ignores a changed value")
	}
	if _, _, ok := digestPrediction([]byte(`{"error":"x"}`)); ok {
		t.Error("a body without a cached field passed")
	}
}

func fixtureFigure() *experiments.FigureResult {
	return &experiments.FigureResult{
		Experiment: experiments.Experiment{ID: "figX"},
		Config:     experiments.Config{DTypes: []matrix.DType{matrix.FP16, matrix.INT8}},
		Series: map[matrix.DType][]experiments.Cell{
			matrix.FP16: {{Label: "a", X: 0.1, PowerW: 201.25, MeanHamming: 7.5}},
			matrix.INT8: {{Label: "a", X: 0.1, PowerW: 150.0000000001, Throttled: true}},
		},
	}
}

// The digest of a fixed result must not change between runs or
// builds: committed digests depend on it.
func TestDigestFigureStable(t *testing.T) {
	const want = "dc6e32cd0bac6fbd5023e28da7c8bd47"
	if got := digestFigure(fixtureFigure()); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
	fr := fixtureFigure()
	fr.Series[matrix.INT8][0].PowerW = 150.0000000002
	if digestFigure(fr) == want {
		t.Error("digest ignores a last-digit change")
	}
}

func TestDigestFig8IgnoresMapOrder(t *testing.T) {
	a := &experiments.Fig8Result{
		Points:        map[matrix.DType][]experiments.Fig8Point{},
		AlignmentCorr: map[matrix.DType]float64{},
		HammingCorr:   map[matrix.DType]float64{},
	}
	b := &experiments.Fig8Result{
		Points:        map[matrix.DType][]experiments.Fig8Point{},
		AlignmentCorr: map[matrix.DType]float64{},
		HammingCorr:   map[matrix.DType]float64{},
	}
	dts := []matrix.DType{matrix.FP32, matrix.FP16, matrix.FP16T, matrix.INT8}
	for i, dt := range dts {
		a.AlignmentCorr[dt] = float64(i) / 3
		a.Points[dt] = []experiments.Fig8Point{{ExperimentID: "f", PowerW: float64(i)}}
	}
	for i := len(dts) - 1; i >= 0; i-- {
		b.AlignmentCorr[dts[i]] = float64(i) / 3
		b.Points[dts[i]] = []experiments.Fig8Point{{ExperimentID: "f", PowerW: float64(i)}}
	}
	if digestFig8(a) != digestFig8(b) {
		t.Error("fig8 digest depends on map insertion order")
	}
}

func TestDigestFrontStable(t *testing.T) {
	f := &sched.Front{Outcomes: []sched.Outcome{{Policy: "PowerPack", Jobs: 2, Completed: 2, MakespanS: 1.5, PeakFleetW: 299.75}}}
	const want = "89b0f564265c9feb742c7b69a94232c3"
	if d, err := digestFront(f); err != nil || d != want {
		t.Errorf("front digest %s (%v), want %s", d, err, want)
	}
}

func TestCommittedDigestsCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if len(committedDigests[w.name]) != 32 {
			t.Errorf("no committed digest for %s", w.name)
		}
	}
}
