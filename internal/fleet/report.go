package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// JobResult records one job's fate. Completed jobs carry timing and
// power; failed jobs carry an Error.
type JobResult struct {
	ID      string `json:"id"`
	Device  string `json:"device,omitempty"` // instance id, e.g. "A100-PCIe-40GB#1"
	DType   string `json:"dtype,omitempty"`
	Pattern string `json:"pattern,omitempty"`
	Size    int    `json:"size,omitempty"`

	ArrivalS float64 `json:"arrival_s,omitempty"`
	FinishS  float64 `json:"finish_s,omitempty"`
	// LatencyS is arrival-to-completion: queueing plus (possibly
	// throttle-stretched) service.
	LatencyS float64 `json:"latency_s,omitempty"`
	// ServiceS is the job's full-clock service time; LatencyS above it
	// is queueing delay and throttle stretch.
	ServiceS float64 `json:"service_s,omitempty"`
	// PowerW is the device power while the job ran (before fleet-level
	// throttling); PredictedW is the serving model's estimate of it.
	PowerW     float64 `json:"power_w,omitempty"`
	PredictedW float64 `json:"predicted_w,omitempty"`

	Error string `json:"error,omitempty"`
}

// ThrottleEvent is one contiguous interval during which a device ran
// below full clocks, with the limiter that caused it.
type ThrottleEvent struct {
	Device string `json:"device"`
	// Reason is "cap" (aggregate fleet power budget) or "thermal"
	// (die at the throttle temperature).
	Reason string  `json:"reason"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// DeviceReport aggregates one fleet instance over the run.
type DeviceReport struct {
	Device            string  `json:"device"` // instance id
	Model             string  `json:"model"`  // preset name
	JobsRun           int     `json:"jobs_run"`
	UtilizationFrac   float64 `json:"utilization_frac"`
	EnergyJ           float64 `json:"energy_j"`
	AvgPowerW         float64 `json:"avg_power_w"`
	PeakPowerW        float64 `json:"peak_power_w"`
	MaxTempC          float64 `json:"max_temp_c"`
	CapThrottledS     float64 `json:"cap_throttled_s"`
	ThermalThrottledS float64 `json:"thermal_throttled_s"`
}

// Sample is one telemetry timeline point (Config.RecordSamples).
type Sample struct {
	TimeS  float64 `json:"time_s"`
	FleetW float64 `json:"fleet_w"`
	// DeviceW and DeviceTempC are indexed like Report.Devices.
	DeviceW     []float64 `json:"device_w"`
	DeviceTempC []float64 `json:"device_temp_c"`
}

// Report is the full outcome of one fleet simulation. It is plain
// data: marshal it as JSON, or render the timeline with WriteCSV.
type Report struct {
	// PowerCapW and AmbientC echo the run's control inputs.
	PowerCapW float64 `json:"power_cap_w"`
	AmbientC  float64 `json:"ambient_c,omitempty"`

	Jobs       int `json:"jobs"`
	Completed  int `json:"completed"`
	Unfinished int `json:"unfinished"`

	// DurationS is the simulated makespan (last completion, or the
	// horizon on an aborted run).
	DurationS float64 `json:"duration_s"`

	LatencyMeanS float64 `json:"latency_mean_s"`
	LatencyP50S  float64 `json:"latency_p50_s"`
	LatencyP90S  float64 `json:"latency_p90_s"`
	LatencyP99S  float64 `json:"latency_p99_s"`
	LatencyMaxS  float64 `json:"latency_max_s"`

	FleetEnergyJ float64 `json:"fleet_energy_j"`
	AvgFleetW    float64 `json:"avg_fleet_w"`
	PeakFleetW   float64 `json:"peak_fleet_w"`

	Devices        []DeviceReport  `json:"devices"`
	ThrottleEvents []ThrottleEvent `json:"throttle_events"`
	// Oracle shows the batched-prediction economics: Lookups is every
	// (job × candidate device) question asked, Distinct the
	// simulations actually paid for.
	Oracle OracleStats `json:"oracle"`

	// JobResults lists completions (sorted by finish time) then
	// failures.
	JobResults []JobResult `json:"job_results,omitempty"`
	Samples    []Sample    `json:"samples,omitempty"`
}

// Report reduces the simulation state so far. It is safe to call at
// any drain point — open throttle events are closed in the returned
// copy without mutating engine state, and the job results are copied —
// but the canonical report is the one taken when the engine has
// drained with no further submissions coming, which is exactly what a
// replayed trace reproduces.
func (e *Engine) Report() *Report {
	r := e.summary()
	r.JobResults = append(r.JobResults, e.completed...)
	r.JobResults = append(r.JobResults, e.failed...)
	return r
}

// summary is Report without JobResults; it sorts the completed results
// by finish time in place.
func (e *Engine) summary() *Report {
	r := &Report{
		PowerCapW:      e.cfg.PowerCapW,
		AmbientC:       e.cfg.AmbientC,
		Jobs:           e.submitted,
		Completed:      len(e.completed),
		Unfinished:     len(e.failed),
		DurationS:      e.nowS,
		FleetEnergyJ:   e.fleetWSum,
		PeakFleetW:     e.peakFleetW,
		ThrottleEvents: e.closedEvents(),
		Samples:        e.samples,
	}
	if e.nowS > 0 {
		r.AvgFleetW = e.fleetWSum / e.nowS
	}
	if so, ok := e.cfg.Oracle.(statsOracle); ok {
		r.Oracle = so.Stats()
	}
	if r.ThrottleEvents == nil {
		r.ThrottleEvents = []ThrottleEvent{}
	}

	sort.SliceStable(e.completed, func(a, b int) bool {
		if e.completed[a].FinishS != e.completed[b].FinishS {
			return e.completed[a].FinishS < e.completed[b].FinishS
		}
		return e.completed[a].ID < e.completed[b].ID
	})
	lat := make([]float64, len(e.completed))
	var latSum float64
	for i, jr := range e.completed {
		lat[i] = jr.LatencyS
		latSum += jr.LatencyS
	}
	sort.Float64s(lat)
	if len(lat) > 0 {
		r.LatencyMeanS = latSum / float64(len(lat))
		r.LatencyP50S = percentile(lat, 0.50)
		r.LatencyP90S = percentile(lat, 0.90)
		r.LatencyP99S = percentile(lat, 0.99)
		r.LatencyMaxS = lat[len(lat)-1]
	}

	for _, in := range e.insts {
		dr := DeviceReport{
			Device:            in.id,
			Model:             in.dev.Name,
			JobsRun:           in.jobsRun,
			EnergyJ:           in.energyJ,
			PeakPowerW:        in.peakPowerW,
			MaxTempC:          in.maxTempC,
			CapThrottledS:     in.capS,
			ThermalThrottledS: in.thermalS,
		}
		if e.nowS > 0 {
			dr.UtilizationFrac = in.busyS / e.nowS
			dr.AvgPowerW = in.energyJ / e.nowS
		}
		r.Devices = append(r.Devices, dr)
	}
	return r
}

// percentile reads the p-quantile from an ascending slice by
// nearest-rank, matching examples/loadgen's reduction.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// WriteJSON writes the report as indented JSON. The encoding is
// deterministic: struct fields in declaration order, no maps.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes the telemetry timeline as CSV: one row per sample
// with fleet watts and per-device power and temperature columns. The
// report must have been produced with Config.RecordSamples.
func (r *Report) WriteCSV(w io.Writer) error {
	if len(r.Samples) == 0 {
		return fmt.Errorf("fleet: report has no samples (set Config.RecordSamples)")
	}
	header := "time_s,fleet_w"
	for _, d := range r.Devices {
		header += "," + d.Device + "_w," + d.Device + "_temp_c"
	}
	if _, err := io.WriteString(w, header+"\n"); err != nil {
		return err
	}
	for _, sm := range r.Samples {
		row := fmtF(sm.TimeS) + "," + fmtF(sm.FleetW)
		for i := range r.Devices {
			row += "," + fmtF(sm.DeviceW[i]) + "," + fmtF(sm.DeviceTempC[i])
		}
		if _, err := io.WriteString(w, row+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
