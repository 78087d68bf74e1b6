package fleet

// Crash safety for the live control plane: an append-only JSONL
// write-ahead log of every admitted job, fsynced before the admission
// is acknowledged, plus the resume path that replays a journal through
// a fresh engine. Because the controller runs in virtual time and the
// engine is deterministic, replaying the journal does not approximate
// the pre-crash state — it reproduces it exactly: the same jobs with
// the same stamped arrivals yield byte-identical /fleet/trace and
// /fleet/report, which is the same live≡offline equivalence the trace
// replay path already proves.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// WAL is an append-only JSONL job journal: one admitted job per line,
// fsynced per append, so every acknowledged admission survives a
// crash. Safe for concurrent Append calls.
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenWAL opens (creating if needed) the journal at path for
// appending. Opening an existing journal does not truncate it: a
// resumed session appends its new admissions after the replayed ones,
// so a second crash resumes from the full history.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: wal: %w", err)
	}
	return &WAL{f: f, path: path}, nil
}

// Append journals one admitted job and fsyncs before returning — when
// Append returns nil the job is durable.
func (w *WAL) Append(j Job) error {
	line, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("fleet: wal: %w", err)
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("fleet: wal %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("fleet: wal %s: sync: %w", w.path, err)
	}
	return nil
}

// Close closes the journal file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// ReadWAL loads a journal: the admitted jobs in admission order, with
// their stamped arrivals. A torn FINAL line — the one write a crash
// can interrupt mid-append — is dropped silently (its job was never
// acknowledged, because Append fsyncs before returning); corruption
// anywhere earlier is an error, not something to guess past.
func ReadWAL(path string) ([]Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: wal: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// Trailing empty element from the final newline, if the last write
	// completed.
	for len(lines) > 0 && len(bytes.TrimSpace(lines[len(lines)-1])) == 0 {
		lines = lines[:len(lines)-1]
	}
	jobs := make([]Job, 0, len(lines))
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			return nil, fmt.Errorf("fleet: wal %s: blank line %d mid-journal", path, i+1)
		}
		var j Job
		if err := json.Unmarshal(line, &j); err != nil {
			if i == len(lines)-1 {
				break // torn final append: the job was never acked
			}
			return nil, fmt.Errorf("fleet: wal %s: line %d: %w", path, i+1, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// AttachJournal makes the controller journal every admitted job to w
// before acknowledging it. Attach before serving traffic; the
// controller does not close the WAL.
func (c *Controller) AttachJournal(w *WAL) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = w
}

// Resume replays a journal into a fresh controller, reconstructing the
// exact pre-crash state: every job re-enters the engine with its
// journaled ID and stamped arrival (NOT re-stamped — the arrival is
// the state being restored), in journal order, before the tick loop
// runs a single tick. Replayed jobs are not re-journaled; they are
// already on disk, and post-resume admissions append after them, so
// the journal stays a complete history across repeated crashes.
//
// Call Resume once, on a controller that has not accepted any jobs
// yet, before exposing its Handler.
func (c *Controller) Resume(ctx context.Context, jobs []Job) error {
	if len(jobs) == 0 {
		return nil
	}
	// Resolve every job's operating points outside the lock (resolution
	// may hit a remote serving instance), exactly as live Submit does.
	resolved := make([]map[OpKey]OperatingPoint, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if j.ID == "" {
			return fmt.Errorf("fleet: resume: journal job %d has no id", i)
		}
		if err := normalizeJob(j); err != nil {
			return fmt.Errorf("fleet: resume: %w", err)
		}
		keys, err := appendJobKeys(nil, j, c.models, c.inFleet)
		if err != nil {
			return fmt.Errorf("fleet: resume: job %s: %w", j.ID, err)
		}
		points, err := c.oracle.Resolve(ctx, keys)
		if err != nil {
			return fmt.Errorf("fleet: resume: job %s: resolve operating points: %w", j.ID, err)
		}
		ops := make(map[OpKey]OperatingPoint, len(keys))
		for k, key := range keys {
			ops[key] = points[k]
		}
		resolved[i] = ops
	}

	// One lock hold for the whole replay: the tick loop is parked on
	// the condition variable (nothing was pending) and must not advance
	// the clock between two journaled arrivals — the engine rejects
	// arrivals in the simulated past.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("fleet: resume: controller is shut down")
	}
	if len(c.jobs) != 0 {
		return fmt.Errorf("fleet: resume: controller already has %d jobs", len(c.jobs))
	}
	for i := range jobs {
		j := jobs[i]
		if _, taken := c.jobs[j.ID]; taken {
			return fmt.Errorf("fleet: resume: duplicate job %q in journal", j.ID)
		}
		c.eng.AddOperatingPoints(resolved[i])
		if err := c.eng.Submit(&j); err != nil {
			return fmt.Errorf("fleet: resume: job %s: %w", j.ID, err)
		}
		c.jobs[j.ID] = &jobRecord{job: j, phase: phasePending}
		c.executed = append(c.executed, j)
		c.metrics.Counter("fleet.jobs.submitted").Inc()
	}
	c.cond.Signal()
	return nil
}
