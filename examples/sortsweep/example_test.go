//go:build !race

package main

// Example runs the walkthrough and pins what it prints. Race builds
// leave it out: it takes seconds even without the race detector.
func Example() {
	main()
	// Output:
	// Placement sweep on A100-PCIe-40GB (FP16, 1024x1024), power in W
	//
	// variant \ sorted             0%      25%      50%      75%     100%
	// sorted rows (5a)          171.8    166.2    159.1    152.9    147.9
	// sorted+aligned (5b)       171.7    164.5    154.8    145.8    138.5
	// sorted columns (5c)       171.7    167.4    162.3    158.3    155.3
	// within rows (5d)          171.7    166.8    161.3    156.8    153.3
	//
	// reduction at 100% sorted vs unsorted:
	//   sorted rows (5a)        23.9 W (13.9%)
	//   sorted+aligned (5b)     33.2 W (19.3%)
	//   sorted columns (5c)     16.4 W (9.6%)
	//   within rows (5d)        18.4 W (10.7%)
	//
	// T9: the aligned variant (5b) saves the most; T11: within-row (5d) the least.
}
