//go:build !race

package main

// Example runs the walkthrough and pins what it prints. Race builds
// leave it out: it takes seconds even without the race detector.
func Example() {
	main()
	// Output:
	// LLM projection GEMMs (tokens × 4096 × 4096, FP16-T) on A100-PCIe-40GB
	//
	// phase                         power (W) runtime (µs)      bound      J/token   headroom
	// prefill (2048-token prompt)       294.8        285.7    compute      0.00004      16.8%
	// decode (batch 64)                 128.6         29.4    compute      0.00006      15.4%
	// decode (batch 8)                   68.9         24.7     memory      0.00021       6.9%
	// decode (batch 1)                   59.6         24.6     memory      0.00147       4.0%
	//
	// Prefill runs at the paper's compute-bound operating point, where input
	// patterns move a large dynamic-power budget. Decode is memory-bound:
	// compute units idle on operand delivery, absolute power is lower, and the
	// input-dependent headroom shrinks with it — energy per token, however,
	// explodes at small batch, which is why batching remains the first-order
	// power lever and input patterns the second.
}
