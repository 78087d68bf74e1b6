package main

// Example runs the walkthrough and pins what it prints.
func Example() {
	main()
	// Output:
	// Input-dependent GEMM power on A100-PCIe-40GB (FP16, 1024x1024)
	//
	// input pattern                             power (W) runtime (µs)    vs base
	// gaussian(default)                             171.7         55.8      +0.0%
	// gaussian(mean=500, std=1)                     158.1         55.8      -7.9%
	// set(n=4, mean=0, std=210)                     161.7         55.8      -5.8%
	// constant(random)                              136.8         55.8     -20.3%
	// gaussian(default) | sort(rows, 100%)          138.5         55.8     -19.3%
	// gaussian(default) | sparsify(50%)             155.0         55.8      -9.8%
	// gaussian(default) | zerolsb(8)                139.7         55.8     -18.6%
	//
	// Note the runtime column: the kernel does identical work for every
	// input, so all of the power change is input-dependent switching activity.
}
