package main

// Example runs the walkthrough and pins what it prints.
func Example() {
	main()
	// Output:
	// fleet: 3×A100 + 1×H100, 192 jobs, sizes 256/512, FP16/FP16-T/INT8
	//
	// dense/random inputs, uncapped:
	//   makespan 6.14s, fleet avg 328 W, peak 376 W, energy 2012 J
	//   latency p50/p90/p99 = 2.404/4.215/4.594 s, 0 throttle events
	//   A100-PCIe-40GB#0        58 jobs, util   93%, avg 71 W, max 40.6 °C
	//   A100-PCIe-40GB#1        45 jobs, util   99%, avg 74 W, max 40.9 °C
	//   A100-PCIe-40GB#2        45 jobs, util   92%, avg 70 W, max 40.6 °C
	//   H100-SXM5-80GB#0        44 jobs, util   98%, avg 112 W, max 37.9 °C
	//
	// sparse/sorted/zeroed inputs, uncapped:
	//   makespan 6.14s, fleet avg 309 W, peak 342 W, energy 1895 J
	//   latency p50/p90/p99 = 2.404/4.215/4.594 s, 0 throttle events
	//   A100-PCIe-40GB#0        58 jobs, util   93%, avg 67 W, max 40.0 °C
	//   A100-PCIe-40GB#1        45 jobs, util   99%, avg 70 W, max 40.3 °C
	//   A100-PCIe-40GB#2        45 jobs, util   92%, avg 68 W, max 40.2 °C
	//   H100-SXM5-80GB#0        44 jobs, util   98%, avg 103 W, max 37.3 °C
	//
	// input encoding alone moved the fleet average by 19 W (5.8%)
	//
	// dense/random inputs under a 342 W cap:
	//   makespan 6.37s, fleet avg 325 W, peak 342 W, energy 2067 J
	//   latency p50/p90/p99 = 2.565/4.435/4.817 s, 68 throttle events
	//   A100-PCIe-40GB#0        58 jobs, util   93%, avg 70 W, max 40.6 °C
	//   A100-PCIe-40GB#1        45 jobs, util   99%, avg 74 W, max 40.9 °C
	//   A100-PCIe-40GB#2        45 jobs, util   93%, avg 70 W, max 40.6 °C
	//   H100-SXM5-80GB#0        44 jobs, util   98%, avg 111 W, max 37.9 °C
	//
	// capping to the cheap stream's peak cost 4% extra makespan and 68 throttle events
	//
	// batched prediction: 1152 job lookups resolved by 72 distinct simulations (16.0× coalescing)
}
