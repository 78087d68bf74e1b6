// Package faultinject is the deterministic fault-injection subsystem:
// a seeded, schedule-driven plan of per-shard, per-request-index faults
// (connection refused, latency spikes, truncated responses, injected
// 5xx, hang-until-deadline) and Transport, the one http.RoundTripper
// that applies it. In-process chaos tests wrap their shard clients
// with a Transport; cmd/chaosproxy runs the same Transport behind an
// httputil.ReverseProxy in front of a real powerserve shard, so one
// JSON plan means the same faults in both places. Because the schedule
// is a pure function of its seed, every chaos run is replayable: the
// same plan against the same request stream injects the same faults,
// which is what lets the chaos equivalence tests demand byte-identical
// answers under failure.
//
// Fault placement discipline: every kind except Truncate fires BEFORE
// the request reaches the shard, so a retried or re-routed attempt
// finds the shard exactly as if the faulted attempt never happened.
// Truncate necessarily fires after (it cuts a real response short) —
// the shard has processed the request — which is why the cluster
// client treats received-then-broken responses as non-retryable on the
// same shard and fails over instead.
package faultinject

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/rng"
)

// Kind names one injectable fault.
type Kind string

// The fault taxonomy. All kinds except KindTruncate fire before the
// request reaches the upstream shard.
const (
	// KindRefuse fails the attempt immediately, like a connection
	// refused by a dead host. No bytes reach the shard.
	KindRefuse Kind = "refuse"
	// KindHang accepts the request and never answers; the attempt ends
	// only when the caller's deadline or cancellation fires. No bytes
	// reach the shard.
	KindHang Kind = "hang"
	// KindDelay holds the request for DelayMS before forwarding it —
	// a latency spike, not a failure, unless the delay outlives the
	// caller's per-attempt deadline.
	KindDelay Kind = "delay"
	// KindError5xx answers HTTP 503 with a non-JSON body without
	// forwarding, modelling a sick proxy or load balancer in the path.
	KindError5xx Kind = "error"
	// KindTruncate forwards the request, then cuts the shard's response
	// off mid-body. The only post-forward kind: the shard has processed
	// the request even though the caller never saw the answer.
	KindTruncate Kind = "truncate"
)

// Kinds lists every fault kind, in taxonomy order.
func Kinds() []Kind {
	return []Kind{KindRefuse, KindHang, KindDelay, KindError5xx, KindTruncate}
}

// Event schedules one fault: the Request-th eligible request arriving
// at shard Shard suffers Kind. Request indices are 0-based and count
// only POST traffic (predictions and trains) — health and metrics
// probes pass through unfaulted and uncounted, so readiness polling
// cannot shift the schedule.
type Event struct {
	// Shard selects which ring member's schedule this event belongs to.
	Shard int `json:"shard"`
	// Request is the 0-based index of the faulted request at that shard.
	Request int `json:"request"`
	// Kind is the fault to inject.
	Kind Kind `json:"kind"`
	// DelayMS is the hold time for KindDelay events (ignored otherwise;
	// 0 = DefaultDelayMS).
	DelayMS int `json:"delay_ms,omitempty"`
}

// DefaultDelayMS is the latency spike applied when a delay event does
// not specify one.
const DefaultDelayMS = 25

// Plan is a complete fault schedule: the seed it was generated from
// (zero for hand-written plans) and the scheduled events. The same
// plan file drives in-process Transports and cmd/chaosproxy.
type Plan struct {
	// Seed records the generator seed for provenance; replaying a chaos
	// run needs only this number and the generation spec.
	Seed uint64 `json:"seed,omitempty"`
	// Events is the fault schedule, any order.
	Events []Event `json:"events"`
}

// Lookup returns the fault scheduled for the request-th eligible
// request at shard, if any. It only reads the plan, so any number of
// Transports may share one plan and call it concurrently; plans hold
// tens to hundreds of events, so a scan costs far less than the
// request it decides.
func (p *Plan) Lookup(shard, request int) (Event, bool) {
	for _, ev := range p.Events {
		if ev.Shard == shard && ev.Request == request {
			return ev, true
		}
	}
	return Event{}, false
}

// Validate rejects plans with unknown fault kinds, negative indices or
// delays, or two events at one (shard, request) index, so a typo in a
// committed plan file fails loudly at load time rather than silently
// never firing or firing as something else.
func (p *Plan) Validate() error {
	known := make(map[Kind]bool)
	for _, k := range Kinds() {
		known[k] = true
	}
	seen := make(map[[2]int]bool, len(p.Events))
	for i, ev := range p.Events {
		if !known[ev.Kind] {
			return fmt.Errorf("faultinject: event %d: unknown kind %q", i, ev.Kind)
		}
		if ev.Shard < 0 || ev.Request < 0 {
			return fmt.Errorf("faultinject: event %d: negative shard/request index", i)
		}
		if ev.DelayMS < 0 {
			return fmt.Errorf("faultinject: event %d: negative delay_ms %d", i, ev.DelayMS)
		}
		at := [2]int{ev.Shard, ev.Request}
		if seen[at] {
			return fmt.Errorf("faultinject: event %d: duplicate event at shard %d request %d", i, ev.Shard, ev.Request)
		}
		seen[at] = true
	}
	return nil
}

// ReadPlan decodes and validates a JSON plan.
func ReadPlan(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faultinject: plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// WritePlan encodes the plan as indented JSON, the exact shape
// ReadPlan accepts.
// Only tests call it: TestPlanJSONRoundtrip and FuzzReadPlan.
func (p *Plan) WritePlan(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("faultinject: write plan: %w", err)
	}
	return nil
}

// GenSpec parameterizes plan generation. Zero-valued fields take the
// defaults noted on each.
type GenSpec struct {
	// Seed drives every random choice; equal specs generate equal plans.
	Seed uint64
	// Shards is the ring width the plan covers (default 1).
	Shards int
	// Requests is the per-shard request-index horizon: indices
	// [0, Requests) are eligible for faults (default 64).
	Requests int
	// Rate is the per-index fault probability (default 0.2).
	Rate float64
	// Kinds is the fault mix drawn from uniformly (default: all kinds).
	Kinds []Kind
	// DelayMS is the latency spike magnitude for generated delay events
	// (default DefaultDelayMS).
	DelayMS int
}

func (s GenSpec) withDefaults() GenSpec {
	if s.Shards <= 0 {
		s.Shards = 1
	}
	if s.Requests <= 0 {
		s.Requests = 64
	}
	if s.Rate <= 0 {
		s.Rate = 0.2
	}
	if len(s.Kinds) == 0 {
		s.Kinds = Kinds()
	}
	if s.DelayMS <= 0 {
		s.DelayMS = DefaultDelayMS
	}
	return s
}

// Generate builds a plan deterministically from the spec: for every
// (shard, request index) pair under the horizon an independent seeded
// draw decides whether a fault fires and which kind. Equal specs yield
// equal plans — the property the chaos tests replay on.
// Only tests call it: TestChaosEquivalence draws its plan here.
func Generate(spec GenSpec) *Plan {
	spec = spec.withDefaults()
	src := rng.Derive(spec.Seed, "faultinject/plan")
	p := &Plan{Seed: spec.Seed}
	for shard := 0; shard < spec.Shards; shard++ {
		for req := 0; req < spec.Requests; req++ {
			if src.Float64() >= spec.Rate {
				continue
			}
			ev := Event{Shard: shard, Request: req, Kind: spec.Kinds[src.Intn(len(spec.Kinds))]}
			if ev.Kind == KindDelay {
				ev.DelayMS = spec.DelayMS
			}
			p.Events = append(p.Events, ev)
		}
	}
	return p
}
