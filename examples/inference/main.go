// inference profiles the GEMM shapes of LLM serving — the workload the
// paper's introduction motivates — on the simulated A100: prefill
// (large square-ish GEMMs, compute-bound, near the paper's operating
// point) versus decode (batch-sized skinny GEMMs, memory-bound), and
// how much input-dependent headroom each phase offers.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/rng"
)

const dModel = 4096

func main() {
	dev := device.A100PCIe()
	sim, err := core.NewSimulator(dev)
	if err != nil {
		log.Fatal(err)
	}
	dt := matrix.FP16T

	type phase struct {
		name   string
		tokens int // rows of the activation matrix
	}
	phases := []phase{
		{"prefill (2048-token prompt)", 2048},
		{"decode (batch 64)", 64},
		{"decode (batch 8)", 8},
		{"decode (batch 1)", 1},
	}

	fmt.Printf("LLM projection GEMMs (tokens × %d × %d, %v) on %s\n\n", dModel, dModel, dt, dev.Name)
	fmt.Printf("%-28s %10s %12s %10s %12s %10s\n",
		"phase", "power (W)", "runtime (µs)", "bound", "J/token", "headroom")

	for _, ph := range phases {
		dense := measure(sim, dt, ph.tokens, func(m *matrix.Matrix, src *rng.Source) {
			patterns.Gaussian(0, 0.05).Apply(m, src)
		})
		// Input-dependent headroom: the same GEMM with half the weight
		// bits zeroed (T14-style physical sparsity).
		lean := measure(sim, dt, ph.tokens, func(m *matrix.Matrix, src *rng.Source) {
			patterns.Gaussian(0, 0.05).ZeroLSBs(5).Apply(m, src)
		})

		bound := "compute"
		if dense.memBound {
			bound = "memory"
		}
		joulesPerToken := dense.energyJ / float64(ph.tokens)
		headroom := 100 * (dense.powerW - lean.powerW) / dense.powerW
		fmt.Printf("%-28s %10.1f %12.1f %10s %12.5f %9.1f%%\n",
			ph.name, dense.powerW, dense.iterUs, bound, joulesPerToken, headroom)
	}

	fmt.Println("\nPrefill runs at the paper's compute-bound operating point, where input")
	fmt.Println("patterns move a large dynamic-power budget. Decode is memory-bound:")
	fmt.Println("compute units idle on operand delivery, absolute power is lower, and the")
	fmt.Println("input-dependent headroom shrinks with it — energy per token, however,")
	fmt.Println("explodes at small batch, which is why batching remains the first-order")
	fmt.Println("power lever and input patterns the second.")
}

type row struct {
	powerW   float64
	iterUs   float64
	energyJ  float64
	memBound bool
}

func measure(sim *core.Simulator, dt matrix.DType, tokens int,
	fill func(m *matrix.Matrix, src *rng.Source)) row {

	x := matrix.New(dt, tokens, dModel)
	w := matrix.New(dt, dModel, dModel)
	fill(x, rng.Derive(1, "acts"))
	fill(w, rng.Derive(1, "weights"))

	tile := kernels.SelectTile(dt, tokens, dModel)
	m, err := sim.MeasureGEMM(x, w, core.Options{SampleOutputs: 64, VMInstance: 1, Tile: tile})
	if err != nil {
		log.Fatal(err)
	}
	return row{
		powerW:   m.AvgPowerW,
		iterUs:   m.IterTimeS * 1e6,
		energyJ:  m.EnergyPerIterJ,
		memBound: m.MemBound,
	}
}
