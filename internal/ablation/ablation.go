// Package ablation dissects the power model: it re-runs the paper's
// experiments with individual energy components disabled, attributing
// each observed input-dependence to its physical cause. This implements
// the "identifying causes" agenda of §V — e.g., the non-monotonic
// sparsity-after-sorting curve (Fig. 6b / T13) exists *because* operand
// toggles compete with multiplier gating; ablate the toggle term and the
// peak collapses into the monotone decrease of Fig. 6a.
//
// The four TestFig… tests in ablation_test.go check the component-to-
// takeaway attributions; cmd/ablate prints them.
package ablation

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/matrix"
	"repro/internal/stats"
)

// Component names one term of the per-MAC energy decomposition.
type Component string

const (
	// Issue is the data-independent per-MAC energy (EnergyCoeffs.IssuePJ).
	Issue Component = "issue"
	// Operand is the operand-delivery toggle energy
	// (EnergyCoeffs.OperandPJPerToggle).
	Operand Component = "operand"
	// Mult is the multiplier-array partial-product energy
	// (EnergyCoeffs.MultPJPerPP).
	Mult Component = "mult"
	// Product is the multiplier-output toggle energy
	// (EnergyCoeffs.ProductPJPerToggle).
	Product Component = "product"
	// Accum is the accumulator toggle energy
	// (EnergyCoeffs.AccumPJPerToggle).
	Accum Component = "accum"
	// Stream is the tile-streaming toggle energy
	// (Device.StreamPJPerToggle).
	Stream Component = "stream"
)

// Components lists the ablatable terms.
var Components = []Component{Issue, Operand, Mult, Product, Accum, Stream}

// Disable returns a copy of the device with the listed components'
// energies zeroed for every datatype. The original device is untouched.
func Disable(dev *device.Device, comps ...Component) *device.Device {
	out := *dev
	out.Name = dev.Name + "(ablated)"
	out.Energy = make(map[matrix.DType]device.EnergyCoeffs, len(dev.Energy))
	for dt, e := range dev.Energy {
		out.Energy[dt] = e
	}
	for _, c := range comps {
		switch c {
		case Stream:
			out.StreamPJPerToggle = 0
		default:
			for dt, e := range out.Energy {
				switch c {
				case Issue:
					e.IssuePJ = 0
				case Operand:
					e.OperandPJPerToggle = 0
				case Mult:
					e.MultPJPerPP = 0
				case Product:
					e.ProductPJPerToggle = 0
				case Accum:
					e.AccumPJPerToggle = 0
				}
				out.Energy[dt] = e
			}
		}
	}
	return &out
}

// Only returns a copy of the device with every data-dependent component
// EXCEPT the listed ones zeroed (issue and static are always kept:
// they are data-independent).
// Only tests call it: TestOnlyKeepsSelected and
// TestFig6aSparsityDrivenByMultiplierGating.
func Only(dev *device.Device, keep ...Component) *device.Device {
	drop := make([]Component, 0, len(Components))
	keepSet := map[Component]bool{Issue: true}
	for _, c := range keep {
		keepSet[c] = true
	}
	for _, c := range Components {
		if !keepSet[c] {
			drop = append(drop, c)
		}
	}
	return Disable(dev, drop...)
}

// SeriesShape summarizes the input-dependence of one experiment series.
type SeriesShape struct {
	// Swing is (max-min)/max of mean power across the sweep.
	Swing float64
	// Trend is the Spearman rank correlation of power against the sweep
	// coordinate (+1 monotone rising, -1 monotone falling).
	Trend float64
	// PeakX is the sweep coordinate of the maximum power.
	PeakX float64
	// PeakProminence is how far the maximum rises above the first sweep
	// point, in watts.
	PeakProminence float64
	// InteriorPeak reports whether the maximum sits strictly inside the
	// sweep AND rises above the endpoints by more than the measurement
	// error (the Fig. 6b signature; the error guard keeps seed noise
	// from minting phantom peaks on monotone series).
	InteriorPeak bool
}

// Shape computes the series summary for one datatype of a figure result.
func Shape(fr *experiments.FigureResult, dt matrix.DType) SeriesShape {
	cells := fr.Series[dt]
	xs := make([]float64, len(cells))
	ps := make([]float64, len(cells))
	var maxErr float64
	for i, c := range cells {
		xs[i] = c.X
		ps[i] = c.PowerW
		if c.PowerErrW > maxErr {
			maxErr = c.PowerErrW
		}
	}
	peak := stats.ArgMax(ps)
	prominence := ps[peak] - ps[0]
	guard := 3 * maxErr
	if guard < 0.05 {
		guard = 0.05
	}
	interior := peak > 0 && peak < len(ps)-1 &&
		prominence > guard && ps[peak]-ps[len(ps)-1] > guard
	return SeriesShape{
		Swing:          experiments.PowerSwing(cells),
		Trend:          stats.Spearman(xs, ps),
		PeakX:          xs[peak],
		PeakProminence: prominence,
		InteriorPeak:   interior,
	}
}

// Result pairs a device variant with the shapes it produces.
type Result struct {
	Variant string
	Shape   SeriesShape
}

// RunVariants executes one experiment under several device variants and
// returns the per-variant series shape for the datatype.
func RunVariants(exp experiments.Experiment, cfg experiments.Config, dt matrix.DType,
	variants map[string]*device.Device) (map[string]Result, error) {
	out := make(map[string]Result, len(variants))
	for name, dev := range variants {
		vcfg := cfg
		vcfg.Device = dev
		vcfg.DTypes = []matrix.DType{dt}
		fr, err := experiments.Run(exp, vcfg)
		if err != nil {
			return nil, fmt.Errorf("ablation: variant %q: %w", name, err)
		}
		out[name] = Result{Variant: name, Shape: Shape(fr, dt)}
	}
	return out, nil
}

// StandardVariants returns the canonical ablation set for a device:
// the full model plus one variant per disabled component.
func StandardVariants(dev *device.Device) map[string]*device.Device {
	out := map[string]*device.Device{"full": dev}
	for _, c := range Components {
		out["no-"+string(c)] = Disable(dev, c)
	}
	return out
}
