package main

import (
	"errors"
	"math"
	"sync"
	"time"

	"evclimate/internal/control"
	"evclimate/internal/runner"
	"evclimate/internal/sim"
)

// batchKey groups jobs that share one lockstep batch: the same
// controller family and the same time grid.
type batchKey struct {
	label, key      string
	dt              float64
	sub, steps, fcs int
}

// planBatches groups jobs into lockstep batches as the runner's pool
// does: by controller family and time grid in expansion order, at most
// runner.DefaultBatchSize lanes each, leftover groups flushed in
// first-seen order. Jobs without a lockstep fast path (thermal lanes,
// the MPC) are left out.
func planBatches(jobs []runner.Job) [][]int {
	batchable := map[[2]string]bool{}
	groups := map[batchKey][]int{}
	var order []batchKey
	var units [][]int
	for i := range jobs {
		j := &jobs[i]
		cfg := &j.Config
		if cfg.Thermal != nil || cfg.Profile == nil {
			continue
		}
		pk := [2]string{j.Controller.Label, j.Controller.Key}
		ok, seen := batchable[pk]
		if !seen {
			if c, err := j.Controller.New(); err == nil {
				ok = control.Batchable(c)
			}
			batchable[pk] = ok
		}
		if !ok {
			continue
		}
		dt := cfg.ControlDt
		if dt <= 0 {
			dt = cfg.Profile.Dt
		}
		sub := cfg.PlantSubSteps
		if sub <= 0 {
			sub = 5
		}
		k := batchKey{
			label: pk[0], key: pk[1], dt: dt, sub: sub,
			steps: int(math.Ceil(cfg.Profile.Duration() / dt)), fcs: cfg.ForecastSteps,
		}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
		if len(groups[k]) == runner.DefaultBatchSize {
			units = append(units, groups[k])
			groups[k] = nil
		}
	}
	for _, k := range order {
		if g := groups[k]; len(g) > 0 {
			units = append(units, g)
		}
	}
	return units
}

// replay runs the jobs' lockstep batches through sim.NewBatch with a
// timed BatchController on b.workers goroutines, and returns each
// replayed job's result (nil for jobs in no batch). With inWall the
// replay is part of the traced wall and its time counts as self time.
func replay(b *bench, t *tracer, root int, jobs []runner.Job, inWall bool) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(jobs))
	feed := make(chan []int)
	errs := make([]error, b.workers)
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unit := range feed {
				if errs[w] == nil {
					errs[w] = replayBatch(t, root, jobs, unit, out, inWall)
				}
			}
		}()
	}
	for _, u := range planBatches(jobs) {
		feed <- u
	}
	close(feed)
	wg.Wait()
	return out, errors.Join(errs...)
}

// replayBatch runs one batch and records its span, the aggregate span
// of its DecideAll calls, and the plant and decision totals.
func replayBatch(t *tracer, root int, jobs []runner.Job, unit []int, out []*sim.Result, inWall bool) error {
	start := time.Now()
	cfgs := make([]sim.Config, len(unit))
	ctrls := make([]control.Controller, len(unit))
	for k, i := range unit {
		cfgs[k] = jobs[i].Config
		c, err := jobs[i].Controller.New()
		if err != nil {
			return err
		}
		ctrls[k] = c
	}
	br, err := sim.NewBatch(cfgs)
	if err != nil {
		return err
	}
	tb := &timedBatch{inner: control.Batch(ctrls)}
	rs, err := br.Run(tb)
	if err != nil {
		return err
	}
	dur := time.Since(start)
	for k, i := range unit {
		out[i] = rs[k]
	}
	id := t.add(root, "batch", "sim", start, dur, 0)
	t.add(id, "DecideAll", "control", start, tb.dur, tb.calls)

	lanes := int64(len(unit))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batchRun += dur
	t.decideAll += tb.dur
	t.laneDecides += lanes * int64(tb.calls)
	t.laneSteps += lanes * int64(br.Steps())
	if inWall {
		t.self["sim"] += dur - tb.dur
		t.self["control"] += tb.dur
	}
	return nil
}
