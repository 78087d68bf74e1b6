// Package sched is the fleet placement subsystem: pluggable policies
// that decide which device instance an arriving GEMM job runs on, plus
// an exact A/B comparison harness over deterministic simulation
// outcomes.
//
// A Policy observes the scheduler-visible state at one admission
// instant — per-device backlog, die temperature, and the Oracle's
// predicted operating point (watts, iteration time, predicted power)
// for the job on every eligible device — and returns a placement. The
// paper's core result makes this interesting: per-op power depends on
// input encoding and bit activity, not just FLOPs, so two placements
// of the same job stream can differ in fleet watts, throttle events
// and latency even though every job runs the same kernel shapes.
//
// The package deliberately does not import the fleet simulator:
// policies are pure functions of their inputs, and Compare replays a
// trace through a caller-supplied Runner (internal/fleet provides one
// via fleet.PolicyRunner). Everything is deterministic — policies must
// not consult wall clocks, map iteration order or unseeded randomness,
// so equal traces and configs produce byte-identical fronts.
package sched

import (
	"fmt"
	"strings"
)

// Job is the scheduler-visible description of one arriving job: the
// fields a policy may condition a placement on.
type Job struct {
	// ID identifies the job in traces and reports.
	ID string
	// DType is the datatype setup name in canonical spelling.
	DType string
	// Pattern is the canonical input-pattern DSL form.
	Pattern string
	// Size is the square GEMM dimension.
	Size int
	// ArrivalS is the admission instant in simulated seconds.
	ArrivalS float64
	// Iterations is the GEMM loop length (how long the job holds its
	// device at full clocks: Iterations × Candidate.IterTimeS).
	Iterations int
}

// Candidate is one eligible device instance for a job at admission
// time, paired with the Oracle's operating point for the job on that
// instance's model. Candidates are listed in fleet instance order, so
// index ties broken toward the front are deterministic.
type Candidate struct {
	// Index is the instance's position in the fleet, used to map a
	// placement back onto simulator state.
	Index int
	// Model is the device preset name (e.g. "A100-PCIe-40GB").
	Model string

	// BacklogS is the committed full-clock service time on the
	// instance: the running job's remainder plus every queued job.
	BacklogS float64
	// Queued is the number of unfinished jobs already placed on the
	// instance (running job included).
	Queued int
	// QueueDynEnergyJ is the committed full-clock *dynamic* energy on
	// the instance in joules: Σ (job power − idle floor) × remaining
	// service over the running and queued jobs. BacklogS and
	// QueueDynEnergyJ together give the backlog's mean dynamic draw.
	QueueDynEnergyJ float64

	// TempC is the instance's die temperature at the admission instant.
	TempC float64
	// AmbientC is the instance's inlet temperature.
	AmbientC float64
	// IdleW is the instance's idle power floor in watts.
	IdleW float64
	// RThermalCPerW is the instance's thermal resistance: steady die
	// temperature is AmbientC + power × RThermalCPerW.
	RThermalCPerW float64
	// ThrottleTempC is the die temperature at which the instance's own
	// thermal governor caps clocks.
	ThrottleTempC float64

	// IterTimeS is the job's full-clock iteration time on this model.
	IterTimeS float64
	// PowerW is the sustained board power while the job runs on this
	// model (the simulator's ground truth for energy integration).
	PowerW float64
	// PredictedW is the serving model's §V estimate of PowerW — what a
	// deployed scheduler would actually condition on.
	PredictedW float64
	// Throttled reports that the model's own governor (TDP or thermal
	// steady state) already limits this configuration.
	Throttled bool
}

// PowerSegment is one stretch of committed dynamic power on an
// instance: a running or queued job's remaining full-clock service time
// and its sustained dynamic draw (board power minus the idle floor).
// An instance's committed timeline is a sequence of consecutive
// segments starting at the admission instant.
type PowerSegment struct {
	// DurationS is the segment length at full clocks.
	DurationS float64
	// DynPowerW is the sustained dynamic draw during the segment.
	DynPowerW float64
}

// Fleet is the run-level context shared by every admission decision.
type Fleet struct {
	// PowerCapW is the aggregate fleet power budget (0 = uncapped).
	PowerCapW float64
	// IdleSumW is the fleet's idle floor: Σ instance idle watts. The
	// cap headroom available to dynamic power is PowerCapW − IdleSumW.
	IdleSumW float64
	// Instances is the fleet size.
	Instances int
	// NowS is the admission instant in simulated seconds.
	NowS float64
	// TickS is the simulator integration step. Horizon-aware policies
	// pad projected segments by one tick to absorb the simulator's
	// tick-granular completion detection.
	TickS float64
	// Timelines is the committed dynamic-power profile of every fleet
	// instance, indexed like the fleet (Candidate.Index addresses into
	// it). It is only populated for policies that implement
	// HorizonAware; nil otherwise. The simulator reuses the slices
	// across admissions, so they are valid only during Place.
	Timelines [][]PowerSegment
}

// HorizonAware is implemented by policies that consume Fleet.Timelines.
// The simulator builds the per-instance committed power profiles at
// each admission only when the configured policy asks for them with a
// positive window, so horizon-oblivious runs pay nothing.
type HorizonAware interface {
	// HorizonWindowS is the projection window in seconds; a
	// non-positive window disables timeline construction.
	HorizonWindowS() float64
}

// Policy decides placements. Place returns the index into cands of the
// chosen instance; cands is never empty. Implementations must be
// deterministic pure functions of their arguments (any internal state
// must itself be a deterministic function of the placement history).
type Policy interface {
	// Name is the policy's registry name, stable across releases
	// because reports and CI fixtures key on it.
	Name() string
	// Place chooses one of cands for the job.
	Place(job Job, cands []Candidate, fleet Fleet) int
}

// All returns one instance of every built-in policy, in stable
// presentation order (the order Compare fronts and CLI help use).
func All() []Policy {
	return []Policy{
		EarliestCompletion{},
		PowerPack{},
		ThermalSpread{},
		EnergyGreedy{},
		PredictiveHorizon{WindowS: DefaultHorizonWindowS},
	}
}

// Names lists the built-in policy names in presentation order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name()
	}
	return names
}

// ByName resolves a built-in policy from its name,
// case-insensitively. It returns an error naming the valid choices on
// an unknown name, so CLI surfaces fail loudly.
func ByName(name string) (Policy, error) {
	for _, p := range All() {
		if strings.EqualFold(p.Name(), name) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("sched: unknown policy %q (have %s)", name, strings.Join(Names(), ", "))
}
