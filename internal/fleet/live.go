package fleet

// Controller is the live half of the control plane: the same Engine
// that replays traces offline, driven by jobs arriving over HTTP
// instead of a file. The controller runs in virtual time — the tick
// loop advances the engine only while it has work and parks when
// drained, so wall-clock gaps between submissions cost nothing and
// leave no trace in the simulated timeline. Every accepted job is
// stamped with the engine's simulated time and recorded, which yields
// the live/offline equivalence guarantee: GET /fleet/trace replayed
// through the offline Run (same config, same policy) reproduces
// GET /fleet/report byte-for-byte, including the oracle's
// lookup/distinct economics, because both paths expand the same per-job
// key stream through appendJobKeys.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// tickBatch is how many ticks the controller loop integrates per lock
// hold; between batches the lock is released so HTTP submissions can
// interleave. 256 ticks at the default 1 ms step is a quarter second
// of simulated time per hold.
const tickBatch = 256

// jobPhase is a job's position in its lifecycle.
type jobPhase string

const (
	// phasePending: accepted, waiting for the engine to admit it.
	phasePending jobPhase = "pending"
	// phaseQueued: admitted and placed, waiting on its instance.
	phaseQueued jobPhase = "queued"
	// phaseRunning: executing on its instance.
	phaseRunning jobPhase = "running"
	// phaseCompleted: finished every iteration.
	phaseCompleted jobPhase = "completed"
	// phaseFailed: dropped (bad placement or horizon abort).
	phaseFailed jobPhase = "failed"
)

// JobStatus is the GET /jobs/{id} payload: the job's spec as accepted
// plus its lifecycle state in simulated time.
type JobStatus struct {
	ID         string  `json:"id"`
	Device     string  `json:"device,omitempty"` // pinned model, if any
	DType      string  `json:"dtype"`
	Pattern    string  `json:"pattern"`
	Size       int     `json:"size"`
	Iterations int     `json:"iterations"`
	ArrivalS   float64 `json:"arrival_s"`

	Status string `json:"status"`
	// Instance is the fleet instance the job ran on (set from start).
	Instance string  `json:"instance,omitempty"`
	StartS   float64 `json:"start_s,omitempty"`
	FinishS  float64 `json:"finish_s,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// FleetStatus is the GET /fleet/status payload: the engine's simulated
// clock and drive state, job counts by phase, the controller's
// obs.MetricSet snapshot, and one row per fleet instance.
type FleetStatus struct {
	NowS    float64 `json:"now_s"`
	State   string  `json:"state"`
	Drained bool    `json:"drained"`

	Submitted int `json:"submitted"`
	Pending   int `json:"pending"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	Metrics   map[string]int64 `json:"metrics"`
	Instances []InstanceStatus `json:"instances"`
}

// InstanceStatus is one fleet instance's live state in FleetStatus.
type InstanceStatus struct {
	Device   string  `json:"device"` // instance id, e.g. "A100-PCIe-40GB#0"
	Model    string  `json:"model"`
	Queued   int     `json:"queued"` // unfinished jobs placed here
	BacklogS float64 `json:"backlog_s"`
	TempC    float64 `json:"temp_c"`
	JobsRun  int     `json:"jobs_run"`
}

// submitRequest is the POST /jobs body: a Job spec without an arrival
// time — the controller stamps arrivals with the engine's simulated
// clock, which is what makes live sessions replayable.
type submitRequest struct {
	ID         string `json:"id,omitempty"`
	Device     string `json:"device,omitempty"`
	DType      string `json:"dtype"`
	Pattern    string `json:"pattern"`
	Size       int    `json:"size"`
	Iterations int    `json:"iterations"`
}

// submitResponse is the POST /jobs reply.
type submitResponse struct {
	ID string `json:"id"`
	// ArrivalS is the simulated instant the job entered the queue.
	ArrivalS float64 `json:"arrival_s"`
}

// jobRecord tracks one accepted job through the engine's events.
type jobRecord struct {
	job     Job
	phase   jobPhase
	device  string
	startS  float64
	finishS float64
	err     string
}

// Controller drives an Engine from HTTP submissions. Construct with
// NewController, mount Handler on a server, and Close when done.
type Controller struct {
	oracle  Oracle
	models  []string
	inFleet map[string]bool
	metrics *obs.MetricSet

	// Admission latency split: resolveLat is the oracle round trip
	// (possibly a remote serving ring), admitLat the locked in-memory
	// admission (WAL append included). The two populations answer
	// different questions — "is the oracle slow" vs "is the controller
	// contended" — so they are recorded apart.
	resolveLat *obs.Histogram
	admitLat   *obs.Histogram
	tracer     *obs.Tracer

	mu       sync.Mutex
	cond     *sync.Cond
	eng      *Engine
	jobs     map[string]*jobRecord
	executed []Job // accepted jobs in submit order, arrivals stamped
	journal  *WAL  // when set, every admission is fsynced before the ack
	seq      int
	closed   bool
	loopDone chan struct{}
}

// NewController builds the engine and starts its tick loop. The loop
// parks immediately (nothing is pending) and wakes per submission.
func NewController(cfg Config) (*Controller, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	inFleet := make(map[string]bool, len(eng.models))
	for _, m := range eng.models {
		inFleet[m] = true
	}
	m := obs.NewMetricSet()
	c := &Controller{
		oracle:   eng.cfg.Oracle,
		models:   eng.models,
		inFleet:  inFleet,
		metrics:  m,
		eng:      eng,
		jobs:     make(map[string]*jobRecord),
		loopDone: make(chan struct{}),

		resolveLat: m.Histogram("fleet.resolve.latency"),
		admitLat:   m.Histogram("fleet.admit.latency"),
		// Seeded like the serving tracers: reproducible span identities,
		// "fleet" label decorrelating the stream.
		tracer: obs.NewTracer("fleet", 0xF1EE7EED, 0),
	}
	c.cond = sync.NewCond(&c.mu)
	eng.SetSink(c.onEvent)
	go c.loop()
	return c, nil
}

// Close stops the tick loop and waits for it to exit. The engine state
// stays readable (status, report) after Close; submissions fail.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Signal()
	c.mu.Unlock()
	<-c.loopDone
}

// loop is the controller's only engine driver: it integrates ticks in
// batches while the engine has work and parks on the condition
// variable when drained. Submissions signal it awake.
func (c *Controller) loop() {
	defer close(c.loopDone)
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.closed {
		state, err := c.eng.Advance(context.Background(), tickBatch)
		if err != nil {
			return
		}
		if state != Running {
			// Drained (park until a submission) or aborted (terminal;
			// park until Close).
			c.cond.Wait()
			continue
		}
		// Yield the lock so submissions interleave with long drains.
		c.mu.Unlock()
		c.mu.Lock()
	}
}

// onEvent is the engine's sink: it moves job records through their
// phases and keeps the metrics in step. Called with c.mu held (the
// loop advances the engine under the lock).
func (c *Controller) onEvent(ev Event) {
	rec := c.jobs[ev.JobID]
	if rec == nil {
		return
	}
	switch ev.Kind {
	case EventArrival:
		rec.phase = phaseQueued
		c.metrics.Gauge("fleet.jobs.waiting").Inc()
	case EventStart:
		if rec.phase == phaseQueued {
			c.metrics.Gauge("fleet.jobs.waiting").Dec()
		}
		rec.phase = phaseRunning
		rec.device = ev.Device
		rec.startS = ev.TimeS
		c.metrics.Gauge("fleet.jobs.running").Inc()
	case EventComplete:
		rec.phase = phaseCompleted
		rec.finishS = ev.TimeS
		c.metrics.Gauge("fleet.jobs.running").Dec()
		c.metrics.Counter("fleet.jobs.completed").Inc()
	case EventFail:
		switch rec.phase {
		case phaseQueued:
			c.metrics.Gauge("fleet.jobs.waiting").Dec()
		case phaseRunning:
			c.metrics.Gauge("fleet.jobs.running").Dec()
		}
		rec.phase = phaseFailed
		if ev.Device != "" {
			rec.device = ev.Device
		}
		rec.err = ev.Err
		c.metrics.Counter("fleet.jobs.failed").Inc()
	}
}

// Submit accepts one job: normalize, bound its size, resolve its
// operating points through the oracle (outside the lock — resolution
// may hit a remote serving instance), stamp its arrival with the
// engine's simulated clock and queue it. It returns the assigned ID
// and arrival time.
func (c *Controller) Submit(ctx context.Context, req submitRequest) (submitResponse, error) {
	job := Job{
		ID:         req.ID,
		Device:     req.Device,
		DType:      req.DType,
		Pattern:    req.Pattern,
		Size:       req.Size,
		Iterations: req.Iterations,
	}
	if err := normalizeJob(&job); err != nil {
		return submitResponse{}, &statusError{http.StatusBadRequest, err.Error()}
	}
	// /predict's size bound, checked before the oracle simulates the
	// job. Offline traces keep only the lower bound, so every job
	// accepted here still replays.
	if job.Size > serve.DefaultMaxSize {
		return submitResponse{}, &statusError{http.StatusBadRequest,
			fmt.Sprintf("fleet: job %s: size %d above maximum %d", job.ID, job.Size, serve.DefaultMaxSize)}
	}
	keys, err := appendJobKeys(nil, &job, c.models, c.inFleet)
	if err != nil {
		return submitResponse{}, &statusError{http.StatusBadRequest, err.Error()}
	}
	// The oracle hop runs under its own span (child of the POST /jobs
	// server span when tracing is on): with a cluster oracle this is
	// the edge where an admission crosses into the serving ring.
	resolveCtx, resolveSpan := c.tracer.StartSpan(ctx, "fleet.resolve")
	resolveStart := time.Now()
	resolved, err := c.oracle.Resolve(resolveCtx, keys)
	c.resolveLat.ObserveDuration(time.Since(resolveStart))
	resolveSpan.SetError(err)
	resolveSpan.End()
	if err != nil {
		return submitResponse{}, &statusError{http.StatusBadGateway, fmt.Sprintf("resolve operating points: %v", err)}
	}
	ops := make(map[OpKey]OperatingPoint, len(keys))
	for i, k := range keys {
		ops[k] = resolved[i]
	}

	admitStart := time.Now()
	defer func() { c.admitLat.ObserveDuration(time.Since(admitStart)) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return submitResponse{}, &statusError{http.StatusServiceUnavailable, "controller is shut down"}
	}
	if c.eng.State() == Aborted {
		return submitResponse{}, &statusError{http.StatusConflict, "engine aborted at its simulation horizon"}
	}
	if job.ID == "" {
		for {
			job.ID = fmt.Sprintf("job%06d", c.seq)
			c.seq++
			if _, taken := c.jobs[job.ID]; !taken {
				break
			}
		}
	} else if _, taken := c.jobs[job.ID]; taken {
		return submitResponse{}, &statusError{http.StatusConflict, fmt.Sprintf("job %q already submitted", job.ID)}
	}
	job.ArrivalS = c.eng.NowS()
	c.eng.AddOperatingPoints(ops)
	if err := c.eng.Submit(&job); err != nil {
		return submitResponse{}, &statusError{http.StatusInternalServerError, err.Error()}
	}
	if c.journal != nil {
		// Durable before acknowledged: a journal failure turns the
		// admission into a 500 — the one case where the in-memory state
		// may be ahead of the journal, and the client must not treat
		// the job as accepted.
		if err := c.journal.Append(job); err != nil {
			return submitResponse{}, &statusError{http.StatusInternalServerError, err.Error()}
		}
	}
	c.jobs[job.ID] = &jobRecord{job: job, phase: phasePending}
	c.executed = append(c.executed, job)
	c.metrics.Counter("fleet.jobs.submitted").Inc()
	c.cond.Signal()
	return submitResponse{ID: job.ID, ArrivalS: job.ArrivalS}, nil
}

// Status snapshots the controller for GET /fleet/status.
func (c *Controller) Status() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := FleetStatus{
		NowS:      c.eng.NowS(),
		State:     c.eng.State().String(),
		Drained:   c.eng.State() == Drained,
		Submitted: c.eng.Submitted(),
		Metrics:   c.metrics.Snapshot(),
	}
	for _, rec := range c.jobs {
		switch rec.phase {
		case phasePending:
			st.Pending++
		case phaseQueued:
			st.Queued++
		case phaseRunning:
			st.Running++
		case phaseCompleted:
			st.Completed++
		case phaseFailed:
			st.Failed++
		}
	}
	for _, in := range c.eng.insts {
		st.Instances = append(st.Instances, InstanceStatus{
			Device:   in.id,
			Model:    in.dev.Name,
			Queued:   in.queued(),
			BacklogS: in.backlogS,
			TempC:    in.tempC,
			JobsRun:  in.jobsRun,
		})
	}
	return st
}

// Job returns one job's status for GET /jobs/{id}.
func (c *Controller) Job(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return JobStatus{
		ID:         rec.job.ID,
		Device:     rec.job.Device,
		DType:      rec.job.DType,
		Pattern:    rec.job.Pattern,
		Size:       rec.job.Size,
		Iterations: rec.job.Iterations,
		ArrivalS:   rec.job.ArrivalS,
		Status:     string(rec.phase),
		Instance:   rec.device,
		StartS:     rec.startS,
		FinishS:    rec.finishS,
		Error:      rec.err,
	}, true
}

// Trace returns the session's executed job stream: every accepted job
// with its stamped arrival, in submission order. Replaying it through
// the offline Run with the same config reproduces Report exactly.
func (c *Controller) Trace() (*Trace, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.executed) == 0 {
		return nil, fmt.Errorf("no jobs submitted yet")
	}
	jobs := make([]Job, len(c.executed))
	copy(jobs, c.executed)
	return &Trace{Jobs: jobs}, nil
}

// Report reduces the session, requiring the engine to be drained so
// the report is final — the same reduction the offline replay of
// Trace produces.
func (c *Controller) Report() (*Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng.Submitted() == 0 {
		return nil, fmt.Errorf("no jobs submitted yet")
	}
	if st := c.eng.State(); st == Running {
		return nil, fmt.Errorf("engine is still %s; wait for /fleet/status to report drained", st)
	}
	return c.eng.Report(), nil
}

// statusError carries an HTTP status through the handler layer.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// Handler mounts the controller's HTTP API:
//
//	POST /jobs          submit a job (spec without arrival time)
//	GET  /jobs/{id}     one job's lifecycle status
//	GET  /fleet/status  clock, drive state, counts, metrics, instances
//	GET  /fleet/trace   executed job stream (replayable offline)
//	GET  /fleet/report  final report (409 until drained)
//	GET  /healthz       liveness
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req submitRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			c.writeJSON(w, http.StatusBadRequest, ctlError{Error: "bad request body: " + err.Error()})
			return
		}
		resp, err := c.Submit(r.Context(), req)
		if err != nil {
			c.writeErr(w, err)
			return
		}
		c.writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		js, ok := c.Job(id)
		if !ok {
			c.writeJSON(w, http.StatusNotFound, ctlError{Error: fmt.Sprintf("unknown job %q", id)})
			return
		}
		c.writeJSON(w, http.StatusOK, js)
	})
	mux.HandleFunc("GET /fleet/status", func(w http.ResponseWriter, r *http.Request) {
		c.writeJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("GET /fleet/trace", func(w http.ResponseWriter, r *http.Request) {
		t, err := c.Trace()
		if err != nil {
			c.writeJSON(w, http.StatusConflict, ctlError{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteTrace(w)
	})
	mux.HandleFunc("GET /fleet/report", func(w http.ResponseWriter, r *http.Request) {
		rep, err := c.Report()
		if err != nil {
			c.writeJSON(w, http.StatusConflict, ctlError{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = rep.WriteJSON(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		c.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		switch format := r.URL.Query().Get("format"); format {
		case "", "json":
			c.writeJSON(w, http.StatusOK, map[string]map[string]int64{"metrics": c.metrics.Snapshot()})
		case "prom":
			var buf bytes.Buffer
			if err := obs.WriteProm(&buf, c.metrics.PromSnapshot()); err != nil {
				c.writeJSON(w, http.StatusInternalServerError, ctlError{Error: err.Error()})
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(buf.Bytes())
		default:
			c.writeJSON(w, http.StatusBadRequest, ctlError{Error: "unknown format " + format + " (use json or prom)"})
		}
	})
	mux.Handle("GET /debug/spans", obs.SpansHandler(c.tracer.Recorder()))
	return obs.TraceMiddleware(c.tracer, mux)
}

// ctlError is the controller's JSON error body, matching the serving
// layer's shape so clients share one error path.
type ctlError struct {
	Error string `json:"error"`
}

func (c *Controller) writeErr(w http.ResponseWriter, err error) {
	if se, ok := err.(*statusError); ok {
		c.writeJSON(w, se.status, ctlError{Error: se.msg})
		return
	}
	c.writeJSON(w, http.StatusInternalServerError, ctlError{Error: err.Error()})
}

func (c *Controller) writeJSON(w http.ResponseWriter, status int, v any) {
	c.metrics.Counter("fleet.http.responses").Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
