// Command ablate re-runs a paper experiment with individual power-model
// components disabled and prints how the series shape changes —
// attributing each input-dependence finding to its physical cause (§V
// "identifying causes").
//
// Usage:
//
//	ablate -figure fig6b -dtype FP16 -size 512 -seeds 3
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/ablation"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/matrix"
)

func main() {
	var (
		figure  = flag.String("figure", "fig6b", "experiment ID (fig3a..fig6d)")
		dtype   = flag.String("dtype", "FP16", "datatype (FP32, FP16, FP16-T, INT8)")
		devName = flag.String("device", "A100-PCIe-40GB", "device preset name")
		size    = flag.Int("size", 512, "square matrix dimension")
		seeds   = flag.Int("seeds", 3, "seeds to average over")
	)
	flag.Parse()

	dev := device.ByName(*devName)
	if dev == nil {
		fatalf("unknown device %q", *devName)
	}
	dt, ok := matrix.ParseDType(*dtype)
	if !ok {
		fatalf("unknown dtype %q", *dtype)
	}
	exp, ok := experiments.Get(*figure)
	if !ok {
		fatalf("unknown experiment %q", *figure)
	}

	cfg := experiments.Default()
	cfg.Device = dev
	cfg.Size = *size
	cfg.Seeds = *seeds

	res, err := ablation.RunVariants(exp, cfg, dt, ablation.StandardVariants(dev))
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("%s — %s (%v, %s, %d²)\n", exp.ID, exp.Title, dt, dev.Name, *size)
	fmt.Printf("%s\n\n", exp.Takeaway)
	fmt.Printf("%-14s %10s %8s %8s %14s\n", "variant", "swing(%)", "trend", "peak@x", "interior peak")

	names := make([]string, 0, len(res))
	for name := range res {
		names = append(names, name)
	}
	sort.Strings(names)
	// Print the full model first.
	printRow(res["full"])
	for _, name := range names {
		if name == "full" {
			continue
		}
		printRow(res[name])
	}
	fmt.Println("\nA component whose removal flattens the swing (or collapses the peak)")
	fmt.Println("is the physical cause of that figure's input-dependence.")
}

func printRow(r ablation.Result) {
	fmt.Printf("%-14s %10.1f %8.2f %8.2f %14v\n",
		r.Variant, r.Shape.Swing*100, r.Shape.Trend, r.Shape.PeakX, r.Shape.InteriorPeak)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ablate: "+format+"\n", args...)
	os.Exit(1)
}
