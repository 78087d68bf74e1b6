package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromSnapshot is one process's metrics in typed form, ready for
// Prometheus text exposition. The JSON /metrics endpoint keeps serving
// MetricSet's flat snapshot unchanged; this struct exists so the prom
// renderer can emit correct # TYPE lines.
type PromSnapshot struct {
	// Counters are monotonically increasing totals.
	Counters map[string]int64
	// Gauges are instantaneous values (including MetricSet's ".max"
	// high-water entries).
	Gauges map[string]int64
	// Histograms are latency / width distributions keyed by the house
	// dotted metric name.
	Histograms map[string]HistogramSnapshot
}

// PromName maps a house metric name (dotted, e.g. "cluster.retry.
// attempts") to a valid Prometheus identifier: every byte outside
// [a-zA-Z0-9_:] becomes '_', and a leading digit gets a '_' prefix.
func PromName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promBounds returns the `le` boundaries used to expose a histogram:
// powers of two (so the cumulative counts are exact, see
// CumulativeLE), every other octave to keep families compact.
// Latency histograms span 2^10ns ≈ 1µs to 2^34ns ≈ 17s; unit-less
// ones span 1 to 4096.
func promBounds(scale float64) []int64 {
	lo, hi := 0, 12
	if scale > 1 {
		lo, hi = 10, 34
	}
	bounds := make([]int64, 0, (hi-lo)/2+1)
	for k := lo; k <= hi; k += 2 {
		bounds = append(bounds, int64(1)<<uint(k))
	}
	return bounds
}

// promFloat renders a raw integer observation divided by the
// histogram scale, shortest round-trip form ("1.024e-06", "42").
func promFloat(v int64, scale float64) string {
	return strconv.FormatFloat(float64(v)/scale, 'g', -1, 64)
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format, deterministically ordered by exposed family name. Latency
// histograms (Scale > 1) get a "_seconds" suffix and second-valued
// boundaries; unit-less histograms expose raw values.
func WriteProm(w io.Writer, s PromSnapshot) error {
	type family struct {
		name string
		emit func(io.Writer) error
	}
	var fams []family

	for name, v := range s.Counters {
		n, v := PromName(name), v
		fams = append(fams, family{n, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, v)
			return err
		}})
	}
	for name, v := range s.Gauges {
		n, v := PromName(name), v
		fams = append(fams, family{n, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, v)
			return err
		}})
	}
	for name, snap := range s.Histograms {
		n, snap := PromName(name), snap
		if snap.Scale > 1 {
			n += "_seconds"
		}
		fams = append(fams, family{n, func(w io.Writer) error {
			scale := snap.Scale
			if scale == 0 {
				scale = 1
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
				return err
			}
			for _, bound := range promBounds(scale) {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, promFloat(bound, scale), snap.CumulativeLE(bound)); err != nil {
					return err
				}
			}
			_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				n, snap.Count, n, promFloat(snap.Sum, scale), n, snap.Count)
			return err
		}})
	}

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.emit(w); err != nil {
			return err
		}
	}
	return nil
}
