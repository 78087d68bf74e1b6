package main

// Example runs the walkthrough and pins what it prints.
func Example() {
	main()
	// Output:
	// schedfront: 96 mixed-encoding jobs (512² GEMMs, FP16/FP16-T/INT8) on 4×A100 under a 310 W cap
	//
	// policy                makespan   p99 lat    energy     avg W  events   capped s
	// EarliestCompletion       5.17s     4.61s     1558J     301.5      36    10.208s
	// PowerPack               18.57s    17.70s     4507J     242.7       0     0.000s
	// ThermalSpread           10.19s     9.41s     2662J     261.3       8     2.648s
	// EnergyGreedy             5.17s     4.61s     1558J     301.5      36    10.208s
	// PredictiveHorizon        6.35s     5.80s     1819J     286.3       0     0.000s
	//
	// PowerPack eliminated 36 of 36 cap-throttle events (10.208s of capped device time)
	// the price is makespan: 18.57s vs 5.17s (3.6×) — the exact front an operator chooses on
	// PredictiveHorizon holds PowerPack's throttle count (0 vs 0) at 6.35s makespan: 2.9× faster than PowerPack, within 1.2× of EarliestCompletion
}
