package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"evclimate/internal/control"
	"evclimate/internal/sim"
)

// This file is the pool's one execution path. The planner groups jobs
// into units, and every unit — one lane or sixteen — runs as one
// sim.BatchRunner over SoA state under one control.Batch of its lanes'
// controllers. Each lane's result, trace, checkpoints and telemetry are
// bit-identical to running that job alone (sim's lane-of-1 vs lane-of-N
// property), so batching is purely a scheduling decision, made from the
// expansion order alone to keep sweep outputs worker-count-deterministic.
// Durability — the journal, record streaming, retry, the watchdog,
// checkpoints — applies per lane (durability.go).

// DefaultBatchSize is the lane count per batch when Options.BatchSize
// is zero. Sixteen lanes keep the SoA state well inside L1 while
// amortizing the time loop enough that wider batches stop paying.
const DefaultBatchSize = 16

// batchKey groups jobs that can share one lockstep batch: same
// controller family (same constructor) and the same time grid.
type batchKey struct {
	label, key string
	dt         float64
	sub        int
	steps      int
	forecast   int
}

// gridKey computes a job's batch group from its controller identity and
// time grid, mirroring sim.New's defaulting so the key matches what
// NewBatch will validate. Degenerate grids report ok=false and run
// alone.
func gridKey(job *Job) (batchKey, bool) {
	cfg := &job.Config
	if cfg.Profile == nil {
		return batchKey{}, false
	}
	dt := cfg.ControlDt
	if dt <= 0 {
		dt = cfg.Profile.Dt
	}
	if dt <= 0 {
		return batchKey{}, false
	}
	sub := cfg.PlantSubSteps
	if sub <= 0 {
		sub = 5
	}
	steps := int(math.Ceil(cfg.Profile.Duration() / dt))
	if steps <= 0 {
		return batchKey{}, false
	}
	return batchKey{
		label:    job.Controller.Label,
		key:      job.Controller.Key,
		dt:       dt,
		sub:      sub,
		steps:    steps,
		forecast: cfg.ForecastSteps,
	}, true
}

// batchable reports whether a controller family has an SoA fast path,
// constructing one controller per family (memoized in probe). A family
// without one — the MPC — would only serialize its lanes, so its jobs
// run alone. A failing or panicking constructor is not batchable; the
// job's own run reports the failure.
func batchable(spec *ControllerSpec, probe map[[2]string]bool) (ok bool) {
	pk := [2]string{spec.Label, spec.Key}
	if b, seen := probe[pk]; seen {
		return b
	}
	defer func() {
		if recover() != nil {
			ok = false
		}
		probe[pk] = ok
	}()
	if spec.New != nil {
		if c, err := spec.New(); err == nil {
			ok = control.Batchable(c)
		}
	}
	return ok
}

// planUnits schedules the jobs not yet run into units: batches of up to
// BatchSize lanes for jobs sharing a batchKey of a batchable family,
// single jobs otherwise. Only grids shared by two or more jobs probe
// their family, so a lone job's constructor is never called an extra
// time. Grouping walks the expansion order and flushes leftover partial
// groups in first-seen key order, so the plan is a pure function of the
// job list and BatchSize — independent of workers, wall-clock, and the
// sweep's durability options.
func (pe *poolEnv) planUnits(ran []bool) [][]int {
	size := pe.opts.BatchSize
	if size == 0 {
		size = DefaultBatchSize
	}
	keys := make([]batchKey, len(pe.jobs))
	shared := make(map[batchKey]int)
	for i := range pe.jobs {
		if k, ok := gridKey(&pe.jobs[i]); ok && !ran[i] && size > 1 {
			keys[i] = k
			shared[k]++
		}
	}
	probe := make(map[[2]string]bool)
	groups := make(map[batchKey][]int)
	var order []batchKey
	var units [][]int
	for i := range pe.jobs {
		if ran[i] {
			continue
		}
		key := keys[i]
		if shared[key] < 2 || !batchable(&pe.jobs[i].Controller, probe) {
			units = append(units, []int{i})
			continue
		}
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
		if len(groups[key]) == size {
			units = append(units, groups[key])
			groups[key] = nil
		}
	}
	for _, k := range order {
		if g := groups[k]; len(g) > 0 {
			units = append(units, g)
		}
	}
	return units
}

// runUnit runs one planned unit. A lane that hits the cache finishes at
// once; a lane with a resumable checkpoint runs alone, as does the lane
// of a one-job unit; the rest run as one batch. A batch that errors,
// panics or trips its watchdog is not an attempt: each of its lanes
// reruns alone from attempt 1, so retries, escalation and error text are
// what a one-lane unit gives. Lanes the sweep's cancellation leaves
// unfinished keep a zero JobResult.
func (pe *poolEnv) runUnit(ctx context.Context, unit []int, out []JobResult) {
	var batch []*lane
	for _, i := range unit {
		ln := pe.newLane(i)
		switch {
		case pe.cached(ln):
			pe.finish(ctx, ln, out)
		case len(unit) > 1 && pe.resumable(ln) == nil:
			batch = append(batch, ln)
		default:
			pe.runAlone(ctx, ln, out)
		}
	}
	if len(batch) > 1 {
		if pe.attempt(ctx, batch) == nil {
			for _, ln := range batch {
				pe.finish(ctx, ln, out)
			}
			return
		}
		if ctx.Err() != nil {
			return // drained: the lanes are left for a resume
		}
	}
	for _, ln := range batch {
		pe.runAlone(ctx, ln, out)
	}
}

// attempt runs the lanes once as one unit, the pool's only execution
// path: fresh telemetry per lane (so a rerun never double-counts a
// failed attempt), one sim.BatchRunner over the lanes' configurations,
// one control.Batch of their controllers, an n × JobTimeout watchdog
// for n lanes, and one checkpoint per lane every CheckpointEvery steps.
// Every lane's JobResult carries the unit's outcome — its own result,
// or the unit's error — with the wall-clock shared equally: per-lane
// attribution of a fused loop is not observable, and these series are
// excluded from deterministic comparisons anyway.
func (pe *poolEnv) attempt(ctx context.Context, lanes []*lane) error {
	start := time.Now()
	for _, ln := range lanes {
		pe.newSinks(ln)
	}
	rs, bc, err := pe.simulate(ctx, lanes)
	share := time.Since(start) / time.Duration(len(lanes))
	for k, ln := range lanes {
		ln.jr = JobResult{Job: pe.jobs[ln.i], Elapsed: share, Attempts: 1, Err: err}
		if err == nil {
			ln.jr.Result, ln.jr.Instance = rs[k], bc.Lane(k)
		}
	}
	return err
}

// simulate builds and runs the unit, capturing panics into the error so
// one diverging scenario cannot kill the sweep.
func (pe *poolEnv) simulate(ctx context.Context, lanes []*lane) (rs []*sim.Result, bc control.BatchController, err error) {
	defer func() {
		if r := recover(); r != nil {
			job := &pe.jobs[lanes[0].i]
			rs, err = nil, fmt.Errorf("runner: job %d (%s on %s) %w: %v",
				job.Index, lanes[0].spec.Label, job.Cycle, ErrJobPanicked, r)
		}
	}()
	opts := &pe.opts
	cfgs := make([]sim.Config, len(lanes))
	for k, ln := range lanes {
		cfgs[k] = pe.jobs[ln.i].Config
		if ln.sink != nil {
			cfgs[k].Telemetry = ln.sink
		}
	}
	br, err := sim.NewBatch(cfgs)
	if err != nil {
		// A one-lane unit reports its configuration's own error, as
		// sim.New gives it, without the batch-lane prefix.
		if inner := errors.Unwrap(err); inner != nil && len(lanes) == 1 {
			err = inner
		}
		return nil, nil, err
	}
	ctrls := make([]control.Controller, len(lanes))
	for k, ln := range lanes {
		if ln.spec.New == nil {
			return nil, nil, fmt.Errorf("runner: controller %q has no constructor", ln.spec.Label)
		}
		if ctrls[k], err = ln.spec.New(); err != nil {
			return nil, nil, err
		}
	}
	bc = control.Batch(ctrls)
	bo := sim.BatchRunOptions{Context: ctx}
	if opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		bo.Context, cancel = context.WithTimeout(ctx, time.Duration(len(lanes))*opts.JobTimeout)
		defer cancel()
	}
	// Resumable lanes run alone, so this is nil or one checkpoint.
	for _, ln := range lanes {
		if ln.resume != nil {
			bo.Resume = append(bo.Resume, ln.resume.Checkpoint)
		}
	}
	if lanes[0].ckPath != "" {
		bo.CheckpointEvery = opts.Journal.CheckpointEvery
		bo.OnCheckpoint = func(k int, ck *sim.Checkpoint) error { return pe.writeCheckpoint(lanes[k], ck) }
	}
	rs, err = br.RunWith(bc, bo)
	return rs, bc, err
}
