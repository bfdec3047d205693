package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"

	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

// This file is the pool's per-lane durability: journal replay, the
// attempt loop (watchdog, bounded retry with ladder escalation), the
// finish step (outcome counters, journal append, record streaming,
// registry merge, cache put), and mid-job state checkpoints. Every lane
// of every unit goes through it, batched or alone.

// poolEnv carries one RunJobs call's shared execution state into the
// workers.
type poolEnv struct {
	opts   Options
	jobs   []Job
	fps    []uint64 // every job's fingerprint, hashed once when the sweep caches or records
	jnl    *Journal
	traces []*telemetry.StepTrace

	mu   sync.Mutex // serializes Progress calls and the done count
	done int

	// Durability bookkeeping, always on the shared registry under the
	// "resume_" prefix that DeterministicFilter excludes — how often a
	// sweep was interrupted or retried must not perturb its manifest.
	telReplayed, telRecords, telCkpts *telemetry.Counter
	telRetried, telTimeouts           *telemetry.Counter
}

// lane is one job's execution state within a unit: the controller spec
// of its current attempt (the job's own, or an escalation fallback), its
// checkpoint file and resumable checkpoint, and the telemetry and
// outcome of its latest attempt.
type lane struct {
	i      int
	spec   *ControllerSpec
	ckPath string
	resume *jobCheckpoint
	rec    *telemetry.StepTrace
	priv   *telemetry.Registry
	sink   telemetry.Sink
	jr     JobResult
}

// recordMode reports whether finished jobs produce journal-form
// records: journal mode, or an OnRecord stream (the fabric worker path).
func (pe *poolEnv) recordMode() bool {
	return pe.opts.Journal != nil || pe.opts.OnRecord != nil
}

// resolveCounters registers the pool's durability instruments once, up
// front, and only when their feature is enabled, so sweeps that never
// journal or retry keep their metric snapshots unchanged.
func (pe *poolEnv) resolveCounters() {
	reg := pe.opts.Telemetry
	if reg == nil {
		return
	}
	if pe.recordMode() {
		pe.telReplayed = reg.Counter("resume_journal_replayed_total")
		pe.telRecords = reg.Counter("resume_journal_records_total")
		if pe.opts.Journal != nil && pe.opts.Journal.CheckpointEvery > 0 {
			pe.telCkpts = reg.Counter("resume_checkpoints_total")
		}
	}
	if pe.opts.Retry.MaxAttempts > 1 {
		pe.telRetried = reg.Counter("resume_retries_total")
	}
	if pe.opts.JobTimeout > 0 {
		pe.telTimeouts = reg.Counter("resume_watchdog_timeouts_total")
	}
}

// ReplayRecord reconstructs a finished job's result from its
// journal-form record after validating the record against the job's
// fingerprint fp — the shared replay path of journal resume and the
// fabric coordinator's stitch. The caller folds rec.Metrics and
// rec.Spans into its own registry and trace log.
func ReplayRecord(job *Job, fp uint64, rec *JournalRecord) (JobResult, error) {
	if want := telemetry.FormatFingerprint(fp); rec.Fingerprint != want {
		return JobResult{}, fmt.Errorf("%w: record for job %d has fingerprint %s, this expansion has %s",
			ErrJournalMismatch, job.Index, rec.Fingerprint, want)
	}
	if rec.Result == nil {
		return JobResult{}, fmt.Errorf("runner: journal record for job %d has no result", job.Index)
	}
	return JobResult{
		Job:         *job,
		Result:      rec.Result,
		Elapsed:     time.Duration(rec.ElapsedNs),
		Cached:      rec.Cached,
		Attempts:    rec.Attempts,
		EscalatedTo: rec.EscalatedTo,
		Replayed:    true,
	}, nil
}

// replay reconstructs a finished job from its journal record: the
// result, the step-trace ring, and the metric contribution, exactly as
// the live execution produced them.
func (pe *poolEnv) replay(i int, rec *JournalRecord) (JobResult, error) {
	jr, err := ReplayRecord(&pe.jobs[i], pe.fps[i], rec)
	if err != nil {
		return JobResult{}, err
	}
	if pe.traces != nil {
		ring := telemetry.NewStepTrace(pe.opts.TraceSteps)
		for k := range rec.Spans {
			ring.Record(rec.Spans[k])
		}
		pe.traces[i] = ring
	}
	if err := pe.opts.Telemetry.Merge(rec.Metrics); err != nil {
		return JobResult{}, fmt.Errorf("runner: replay job %d: %w", pe.jobs[i].Index, err)
	}
	pe.telReplayed.Inc()
	return jr, nil
}

// newLane starts job i's lane under the job's own controller.
func (pe *poolEnv) newLane(i int) *lane {
	ln := &lane{i: i, spec: &pe.jobs[i].Controller}
	if pe.jnl != nil && pe.opts.Journal.CheckpointEvery > 0 {
		ln.ckPath = pe.jnl.checkpointPath(pe.fps[i])
	}
	return ln
}

// cached looks the lane's job up in the result cache; a hit becomes the
// lane's outcome.
func (pe *poolEnv) cached(ln *lane) bool {
	if pe.opts.Cache == nil {
		return false
	}
	res, saved, ok := pe.opts.Cache.get(pe.fps[ln.i])
	if ok {
		ln.jr = JobResult{Job: pe.jobs[ln.i], Result: res, Cached: true, Saved: saved, Attempts: 1}
	}
	return ok
}

// resumable loads the lane's mid-run checkpoint into ln.resume when one
// exists for its current controller — a checkpoint from a different
// controller (an earlier attempt before escalation) cannot resume this
// one.
func (pe *poolEnv) resumable(ln *lane) *jobCheckpoint {
	ln.resume = nil
	if ln.ckPath == "" {
		return nil
	}
	if jc, err := readJobCheckpoint(ln.ckPath, pe.fps[ln.i]); err == nil && jc != nil && jc.Checkpoint.Controller == ln.spec.Label {
		ln.resume = jc
	}
	return ln.resume
}

// newSinks gives the lane fresh telemetry for one attempt: a step-trace
// ring when the sweep keeps a trace log, and a private registry when it
// keeps metrics, merged into the sweep registry only when the lane
// finishes. A resuming lane replays its checkpoint's telemetry into
// them, so a mid-run resume emits the same spans and metrics an
// uninterrupted execution would.
func (pe *poolEnv) newSinks(ln *lane) {
	opts := &pe.opts
	ln.rec, ln.priv, ln.sink = nil, nil, nil
	if opts.Telemetry == nil && pe.traces == nil {
		return
	}
	if pe.traces != nil {
		ln.rec = telemetry.NewStepTrace(opts.TraceSteps)
	}
	if opts.Telemetry != nil {
		ln.priv = telemetry.NewRegistry()
	}
	if ln.resume != nil {
		if err := ln.priv.Merge(ln.resume.Metrics); err != nil {
			ln.priv = telemetry.NewRegistry()
			ln.resume = nil
		}
	}
	if ln.resume != nil && ln.rec != nil {
		for k := range ln.resume.Spans {
			ln.rec.Record(ln.resume.Spans[k])
		}
	}
	ln.sink = telemetry.NewSink(ln.priv, ln.rec, jobLabels(&pe.jobs[ln.i])...)
}

// runAlone is a lane's attempt loop: the lane runs as a one-lane unit
// under the JobTimeout watchdog, resuming its checkpoint when it has
// one; retryable failures rerun with backoff, escalating down the
// controller's fallback ladder. Then the lane finishes.
func (pe *poolEnv) runAlone(ctx context.Context, ln *lane, out []JobResult) {
	job := &pe.jobs[ln.i]
	var attemptErrs []error
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			return
		}
		pe.resumable(ln)
		err := pe.attempt(ctx, []*lane{ln})
		ln.jr.Attempts = attempt
		if ln.spec != &job.Controller {
			ln.jr.EscalatedTo = ln.spec.Label
		}
		if err == nil || attempt >= pe.opts.Retry.MaxAttempts || ctx.Err() != nil || !Retryable(err) {
			break
		}
		attemptErrs = append(attemptErrs, err)
		pe.telRetried.Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			pe.telTimeouts.Inc()
		}
		if next := fallbackSpec(&job.Controller, attempt); next != nil {
			ln.spec = next
		}
		if !sleepBackoff(ctx, pe.opts.Retry, job.Seed, attempt) {
			break
		}
	}
	ln.jr.AttemptErrs = attemptErrs
	pe.finish(ctx, ln, out)
}

// finish is a lane's finish step, the same for every job whatever unit
// it ran in: outcome counters on its registry, the cache put, the
// journal append and OnRecord, the registry merge, checkpoint removal,
// and progress. A lane that ends after the sweep's context is cancelled
// is left unfinished — not journaled, not counted — so a resume re-runs
// it, from its checkpoint when it has one.
func (pe *poolEnv) finish(ctx context.Context, ln *lane, out []JobResult) {
	if ctx.Err() != nil {
		return
	}
	opts := &pe.opts
	i, jr := ln.i, &ln.jr
	if pe.traces != nil {
		pe.traces[i] = ln.rec
	}
	if ln.priv == nil && opts.Telemetry != nil {
		ln.priv = telemetry.NewRegistry() // a cache hit ran no attempt
	}
	outcome := "ok"
	switch {
	case jr.Err != nil:
		outcome = "error"
	case jr.Cached:
		outcome = "cached"
	}
	// Every outcome series registers, so each job's registry merges a
	// complete set.
	for _, o := range [...]string{"ok", "error", "cached"} {
		if c := ln.priv.Counter("runner_jobs_total", telemetry.L("result", o)); o == outcome {
			c.Inc()
		}
	}
	ln.priv.Histogram("runner_job_seconds", telemetry.LatencyBuckets).Observe(jr.Elapsed.Seconds())
	// Escalated attempts ran a different controller than the
	// fingerprint names, so their results never enter the cache.
	if opts.Cache != nil && jr.Err == nil && !jr.Cached && ln.spec == &pe.jobs[i].Controller {
		opts.Cache.put(pe.fps[i], jr.Result, jr.Elapsed)
	}

	metrics := ln.priv.Snapshot(nil)
	if pe.recordMode() {
		jrec := &JournalRecord{
			Kind:        "job",
			Index:       jr.Job.Index,
			Fingerprint: telemetry.FormatFingerprint(pe.fps[i]),
			Seed:        jr.Job.Seed,
			Attempts:    jr.Attempts,
			Cached:      jr.Cached,
			ElapsedNs:   jr.Elapsed.Nanoseconds(),
			EscalatedTo: jr.EscalatedTo,
			Result:      jr.Result,
			Metrics:     metrics,
		}
		if ln.rec != nil {
			jrec.Spans = ln.rec.Spans()
		}
		if jr.Err != nil {
			jrec.Err = jr.Err.Error()
			jrec.Result = nil
		}
		if pe.jnl != nil {
			if err := pe.jnl.Append(jrec); err != nil && jr.Err == nil {
				jr.Err = fmt.Errorf("runner: journal append: %w", err)
			}
		}
		if opts.OnRecord != nil {
			opts.OnRecord(jrec)
		}
		pe.telRecords.Inc()
	}
	if err := opts.Telemetry.Merge(metrics); err != nil && jr.Err == nil {
		jr.Err = fmt.Errorf("runner: telemetry merge: %w", err)
	}
	// A finished job needs no mid-run checkpoint anymore.
	if ln.ckPath != "" && jr.Err == nil {
		os.Remove(ln.ckPath)
	}
	out[i] = *jr
	pe.progress(&out[i])
}

// progress reports one finished job to Options.Progress.
func (pe *poolEnv) progress(jr *JobResult) {
	if pe.opts.Progress == nil {
		return
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.done++
	pe.opts.Progress(pe.done, len(pe.jobs), jr)
}

// jobCheckpoint is the on-disk form of one job's mid-run state: the
// simulation checkpoint plus the telemetry the job emitted up to it.
type jobCheckpoint struct {
	Fingerprint string               `json:"fingerprint"`
	Checkpoint  *sim.Checkpoint      `json:"checkpoint"`
	Spans       []telemetry.StepSpan `json:"spans,omitempty"`
	Metrics     telemetry.Snapshot   `json:"metrics,omitempty"`
}

// writeCheckpoint persists a lane's checkpoint with the telemetry its
// attempt emitted so far.
func (pe *poolEnv) writeCheckpoint(ln *lane, ck *sim.Checkpoint) error {
	pe.telCkpts.Inc()
	var spans []telemetry.StepSpan
	if ln.rec != nil {
		spans = ln.rec.Spans()
	}
	return writeJobCheckpoint(ln.ckPath, pe.fps[ln.i], ck, spans, ln.priv.Snapshot(nil))
}

// writeJobCheckpoint persists the checkpoint of the job with
// fingerprint fp atomically (write to a temp file, fsync, rename) so a
// crash never leaves a half-written checkpoint under the real name.
func writeJobCheckpoint(path string, fp uint64, ck *sim.Checkpoint, spans []telemetry.StepSpan, metrics telemetry.Snapshot) error {
	data, err := json.Marshal(jobCheckpoint{
		Fingerprint: telemetry.FormatFingerprint(fp),
		Checkpoint:  ck,
		Spans:       spans,
		Metrics:     metrics,
	})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readJobCheckpoint loads the mid-run checkpoint of the job with
// fingerprint fp. A missing, unparseable, or mismatched file yields nil:
// checkpoints accelerate resumption, they are never required for
// correctness, so anything suspect means "start from scratch".
func readJobCheckpoint(path string, fp uint64) (*jobCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var jc jobCheckpoint
	if err := json.Unmarshal(data, &jc); err != nil {
		return nil, nil
	}
	if jc.Checkpoint == nil || jc.Fingerprint != telemetry.FormatFingerprint(fp) {
		return nil, nil
	}
	return &jc, nil
}
