//go:build !race

package main

// Example runs the walkthrough and pins what it prints. Race builds
// leave it out: it takes seconds even without the race detector.
func Example() {
	main()
	// Output:
	// LLM projection layer on A100-PCIe-40GB: 1024 tokens × 1024 dims (FP16-T)
	//
	// configuration                               power (W)   savings
	// baseline                                        187.2         -
	// free: global K permutation (PIT)                186.8      0.2%
	// bias fold: mean shift (Δ=8.00)                  183.2      2.1%
	// gather kernel: per-neuron sorted                174.2      7.0%
	//   (gather equivalence on sampled neurons: max relative deviation 5.87e-14)
	// magnitude pruning (50%)                         168.0     10.3%
	// gather + pruning                                152.9     18.3%
	//
	// Every configuration runs the identical kernel schedule — the runtime
	// column of the paper's Fig. 1 — so all savings are switching activity.
	// Note the free permutation is honestly weak (one permutation cannot sort
	// every column); the paper-scale savings need the gather-capable kernel.
}
