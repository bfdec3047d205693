package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"evclimate/internal/core"
	"evclimate/internal/drivecycle"
	"evclimate/internal/experiments"
	"evclimate/internal/runner"
)

// paperMPC regenerates the paper's Fig. 7 grid (five evaluation cycles
// × three controllers) and Table I grid (ECE_EUDC × six ambients × three
// controllers) at full length through the experiments harnesses.
type paperMPC struct {
	p paperParams
}

// paperParams are the conditions a seed selects. Seed 0 is the paper's:
// 35 °C, 400 W of solar load and the Table I ambients. Other seeds move
// the hot-day ambient by up to ±1 °C, the solar load by up to ±40 W and
// each Table I ambient by up to ±0.5 °C — near enough to the paper's
// conditions that the solver work per run stays comparable.
type paperParams struct {
	ambientC, solarW float64
	table1           []float64
	// maxS truncates the profiles (0 = full length; tests shorten it).
	maxS float64
}

func paperConditions(seed int64) paperParams {
	p := paperParams{ambientC: 35, solarW: 400, table1: append([]float64(nil), experiments.Table1Ambients...)}
	if seed == 0 {
		return p
	}
	rng := rand.New(rand.NewSource(seed))
	p.ambientC += 2*rng.Float64() - 1
	p.solarW += 80*rng.Float64() - 40
	for i := range p.table1 {
		p.table1[i] += rng.Float64() - 0.5
	}
	return p
}

// options are the harness options the conditions map to.
func (p paperParams) options(workers int) experiments.Options {
	return experiments.Options{AmbientC: p.ambientC, SolarW: p.solarW, MaxProfileS: p.maxS, Workers: workers}
}

// specs are the sweeps experiments.RunCycles and experiments.Table1
// expand for these conditions (the tests pin the fingerprints equal).
func (p paperParams) specs() (fig7, table1 runner.Spec) {
	ctrls := []runner.ControllerSpec{
		runner.OnOffSpec(1),
		runner.FuzzySpec(1),
		runner.MPCSpec(core.DefaultConfig(), 5),
	}
	var cycles []runner.CycleSpec
	for _, c := range drivecycle.EvaluationCycles() {
		cycles = append(cycles, runner.CycleSpec{Name: c.Name})
	}
	fig7 = runner.Spec{
		Controllers:  ctrls,
		Cycles:       cycles,
		Envs:         []runner.Env{{AmbientC: p.ambientC, SolarW: p.solarW}},
		Targets:      []float64{24},
		ComfortBandC: 3,
		MaxProfileS:  p.maxS,
	}
	envs := make([]runner.Env, len(p.table1))
	for i, amb := range p.table1 {
		envs[i] = runner.Env{AmbientC: amb, SolarW: p.solarW}
		if amb < 15 {
			envs[i].SolarW = 0
		}
	}
	table1 = fig7
	table1.Cycles = []runner.CycleSpec{{Name: "ECE_EUDC"}}
	table1.Envs = envs
	return fig7, table1
}

func (w *paperMPC) setup(b *bench) (setup, expand time.Duration, err error) {
	start := time.Now()
	fig7, table1 := w.p.specs()
	t0 := time.Now()
	for _, s := range []runner.Spec{fig7, table1} {
		if _, err := runner.Expand(s); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start), time.Since(t0), nil
}

// run calls the two harnesses. Each gets its own result cache: the
// cache does not change what runs (no scenario repeats within a
// harness), but it keeps every job's sim.Result under its fingerprint,
// which is how the benchmark reads results the harnesses only
// summarize.
func (w *paperMPC) run(b *bench) (*unitRun, error) {
	caches := []*runner.Cache{runner.NewCache(), runner.NewCache()}
	opts := w.p.options(b.workers)
	start := time.Now()
	opts.Cache = caches[0]
	if _, err := experiments.RunCycles(opts); err != nil {
		return nil, err
	}
	mid := time.Now()
	opts.Cache = caches[1]
	if _, err := experiments.Table1(opts, w.p.table1); err != nil {
		return nil, err
	}
	end := time.Now()

	u := &unitRun{wall: end.Sub(start), phases: map[string]time.Duration{
		"experiments.run_cycles_s": mid.Sub(start),
		"experiments.table1_s":     end.Sub(mid),
	}}
	fig7, table1 := w.p.specs()
	for k, s := range []runner.Spec{fig7, table1} {
		jobs, err := runner.Expand(s)
		if err != nil {
			return nil, err
		}
		for i := range jobs {
			j := outOf(&jobs[i])
			var ok bool
			if j.res, ok = caches[k].Get(jobs[i].Fingerprint()); !ok {
				j.err = fmt.Errorf("harness produced no result with this job's fingerprint")
			}
			u.jobs = append(u.jobs, j)
		}
	}
	return u, nil
}

// traced runs the same two sweeps through runner.Run with the MPC
// controller timed — the harnesses build their controller specs
// internally, so the traced run cannot reach them — and then replays
// the baseline controllers' lockstep batches for the plant and
// decision-kernel metrics.
func (w *paperMPC) traced(b *bench, t *tracer, root int) (*unitRun, error) {
	fig7, table1 := w.p.specs()
	u := &unitRun{}
	start := time.Now()
	for _, s := range []runner.Spec{fig7, table1} {
		part, err := tracedRun(b, t, root, s)
		if err != nil {
			return nil, err
		}
		u.jobs = append(u.jobs, part.jobs...)
		u.pool += part.pool
	}
	u.wall = time.Since(start)

	// The replay runs after the timed phase, so its time stays out of
	// the traced wall and of the self times.
	var jobs []runner.Job
	for _, s := range []runner.Spec{fig7, table1} {
		js, err := runner.Expand(s)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, js...)
	}
	rs, err := replay(b, t, root, jobs, false)
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		if r != nil && !sameBits(r, u.jobs[i].res) {
			b.failJob(&u.jobs[i], "replayed batch lane differs from the runner's result")
		}
	}
	return u, nil
}

// checkJob has no per-job check beyond the common ones.
func (w *paperMPC) checkJob(*jobOut) string { return "" }

// check verifies the paper's headline claim at its conditions: the
// lifetime-aware MPC degrades the battery less than On/Off on every
// Fig. 7 cycle.
func (w *paperMPC) check(b *bench, u *unitRun) error {
	if b.seed != 0 {
		return nil
	}
	fig7 := u.jobs[:3*len(drivecycle.EvaluationCycles())]
	onoff := map[string]*jobOut{}
	for i := range fig7 {
		if j := &fig7[i]; j.family == "onoff" {
			onoff[j.cycle] = j
		}
	}
	for i := range fig7 {
		j := &fig7[i]
		if j.family != "mpc" || j.res == nil {
			continue
		}
		oo := onoff[j.cycle]
		if oo == nil || oo.res == nil || !(j.res.DeltaSoH < oo.res.DeltaSoH) {
			b.failJob(j, "MPC ΔSoH not below On/Off on "+j.cycle)
		}
	}
	return nil
}

// tracedRun runs one spec through runner.Run with every MPC-family
// controller timed, recording a span for the call and one per job.
// Baseline controllers stay unwrapped so the pool batches them exactly
// as in the untraced run.
func tracedRun(b *bench, t *tracer, root int, spec runner.Spec) (*unitRun, error) {
	spec.Controllers = append([]runner.ControllerSpec(nil), spec.Controllers...)
	for i, cs := range spec.Controllers {
		if f := family(cs.Label); f == "mpc" || f == "thermal_mpc" {
			spec.Controllers[i] = t.timedSpec(cs)
		}
	}
	start := time.Now()
	id := t.add(root, "runner.Run", "runner", start, 0, 0)
	sw, err := runner.Run(context.Background(), spec, runner.Options{
		Workers:  b.workers,
		Progress: func(_, _ int, jr *runner.JobResult) { t.jobDone(id, jr) },
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	t.mu.Lock()
	t.spans[id].Dur = wall.Seconds()
	t.mu.Unlock()
	return sweepUnit(sw, wall), nil
}
