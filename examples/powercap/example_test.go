//go:build !race

package main

// Example runs the walkthrough and pins what it prints. Race builds
// leave it out: it takes seconds even without the race detector.
func Example() {
	main()
	// Output:
	// power model trained: R² = 1.0000
	//   static 52.6 W, issue 3.70 pJ, operand 0.111 pJ/toggle, mult 0.0220 pJ/pp
	//
	// baseline power 171.7 W, cap 150.0 W
	// model selects sparsity 59.3%
	// validated power 150.0 W (predicted 150.0 W)
	// runtime unchanged: 55.8 µs vs baseline 55.8 µs
	// cap met without any frequency scaling
}
