package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"evclimate/internal/fabric"
	"evclimate/internal/runner"
	"evclimate/internal/telemetry"
)

// gridCycles are the standard drive cycles the baseline grids sweep.
var gridCycles = []string{"ECE15", "EUDC", "NEDC", "ECE_EUDC", "US06", "SC03", "UDDS"}

// gridSpec is the baseline robustness grid: the standard cycles ×
// envs seeded (ambient, solar) conditions × three cabin targets under
// the On/Off and fuzzy baselines. Ambients are uniform in [-10, 40] °C;
// solar load is uniform in [0, 600] W on days at or above 15 °C and
// zero below.
func gridSpec(seed int64, envs int) runner.Spec {
	rng := rand.New(rand.NewSource(seed))
	es := make([]runner.Env, envs)
	for i := range es {
		es[i].AmbientC = -10 + 50*rng.Float64()
		if es[i].AmbientC >= 15 {
			es[i].SolarW = 600 * rng.Float64()
		}
	}
	cycles := make([]runner.CycleSpec, len(gridCycles))
	for i, name := range gridCycles {
		cycles[i] = runner.CycleSpec{Name: name}
	}
	return runner.Spec{
		Controllers: []runner.ControllerSpec{runner.OnOffSpec(1), runner.FuzzySpec(1)},
		Cycles:      cycles,
		Envs:        es,
		Targets:     []float64{22, 24, 26},
		BaseSeed:    seed,
	}
}

// Grid sizes, in seeded environments: 7 cycles × envs × 3 targets × 2
// controllers scenarios. Every result keeps its full trajectories
// (about 95 KB a scenario), so the baseline grid's 2,100 scenarios
// hold about 200 MB at once.
const (
	baselineEnvs = 50
	fabricEnvs   = 7
)

// baselineGrid runs the grid through runner.Run with default batching.
type baselineGrid struct {
	seed int64
}

func (w *baselineGrid) setup(b *bench) (setup, expand time.Duration, err error) {
	start := time.Now()
	spec := gridSpec(w.seed, baselineEnvs)
	t0 := time.Now()
	_, err = runner.Expand(spec)
	return time.Since(start), time.Since(t0), err
}

func (w *baselineGrid) run(b *bench) (*unitRun, error) {
	start := time.Now()
	sw, err := runner.Run(context.Background(), gridSpec(w.seed, baselineEnvs), runner.Options{Workers: b.workers})
	if err != nil {
		return nil, err
	}
	return sweepUnit(sw, time.Since(start)), nil
}

// traced replays the grid's lockstep batches with the decision kernels
// timed: the pool owns the batched call, and wrapping a controller
// would turn batching off.
func (w *baselineGrid) traced(b *bench, t *tracer, root int) (*unitRun, error) {
	start := time.Now()
	jobs, err := runner.Expand(gridSpec(w.seed, baselineEnvs))
	if err != nil {
		return nil, err
	}
	rs, err := replay(b, t, root, jobs, true)
	if err != nil {
		return nil, err
	}
	u := &unitRun{wall: time.Since(start)}
	for i := range jobs {
		j := outOf(&jobs[i])
		if j.res = rs[i]; j.res == nil {
			j.err = errors.New("job was not part of a replayed batch")
		}
		u.jobs = append(u.jobs, j)
	}
	return u, nil
}

func (w *baselineGrid) checkJob(*jobOut) string { return "" }

// sampleLanes is how many lanes the scalar re-run check draws.
const sampleLanes = 32

// check re-runs a seeded sample of lanes one job at a time (batching
// off) and requires each to match its batched result bit for bit.
func (w *baselineGrid) check(b *bench, u *unitRun) error {
	jobs, err := runner.Expand(gridSpec(w.seed, baselineEnvs))
	if err != nil {
		return err
	}
	idx := rand.New(rand.NewSource(w.seed)).Perm(len(jobs))[:sampleLanes]
	sort.Ints(idx)
	sample := make([]runner.Job, len(idx))
	for k, i := range idx {
		sample[k] = jobs[i]
	}
	rs, err := runner.RunJobs(context.Background(), sample, runner.Options{Workers: b.workers, BatchSize: -1})
	if err != nil {
		return err
	}
	for k, i := range idx {
		if rs[k].Err != nil || !sameBits(rs[k].Result, u.jobs[i].res) {
			b.failJob(&u.jobs[i], "scalar re-run differs from the batched result")
		}
	}
	return nil
}

// gridSpecName is the fabric-grid builder's name in the spec registry
// the coordinator and the worker share.
const gridSpecName = "perfbench-grid"

// gridBuilder rebuilds the grid from wire parameters.
func gridBuilder(params map[string]string) (runner.Spec, error) {
	seed, err := strconv.ParseInt(params["seed"], 10, 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("grid seed param: %w", err)
	}
	envs, err := strconv.Atoi(params["envs"])
	if err != nil {
		return runner.Spec{}, fmt.Errorf("grid envs param: %w", err)
	}
	return gridSpec(seed, envs), nil
}

// fabricGrid runs a smaller grid through an in-process coordinator and
// one joined worker over loopback HTTP.
type fabricGrid struct {
	params map[string]string
	specs  *fabric.Registry
}

func newFabricGrid(seed int64) *fabricGrid {
	specs := fabric.NewSpecRegistry()
	specs.Register(gridSpecName, gridBuilder)
	return &fabricGrid{
		params: map[string]string{"seed": strconv.FormatInt(seed, 10), "envs": strconv.Itoa(fabricEnvs)},
		specs:  specs,
	}
}

// fabricTimeout bounds one fabric sweep, so a wedged protocol ends the
// run with an error instead of hanging it.
const fabricTimeout = 150 * time.Second

// transport is a private HTTP transport holding at most workers
// connections to the coordinator.
func transport(workers int) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = workers
	return tr
}

// start builds the coordinator, serves it on a loopback port, and
// returns it with a worker joined over rt.
func (w *fabricGrid) start(b *bench, reg *telemetry.Registry, rt http.RoundTripper) (*fabric.Coordinator, *fabric.Worker, error) {
	spec, err := gridBuilder(w.params)
	if err != nil {
		return nil, nil, err
	}
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec: spec, SpecName: gridSpecName, Params: w.params,
		Label: "fabric-grid", Telemetry: reg, Git: b.stamp.Git,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := coord.Serve("127.0.0.1:0"); err != nil {
		coord.Close()
		return nil, nil, err
	}
	wk := fabric.NewWorker(fabric.WorkerConfig{
		URL: "http://" + coord.Addr, ID: "perfbench-worker", Specs: w.specs,
		Workers: b.workers, Transport: rt, Git: b.stamp.Git,
	})
	return coord, wk, nil
}

// setup runs the fabric's set-up up to the worker's first lease
// request: expansion and sharding, Serve, and the worker's join. Its
// expand time is a separate runner.Expand of the same spec.
func (w *fabricGrid) setup(b *bench) (setup, expand time.Duration, err error) {
	spec, err := gridBuilder(w.params)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if _, err := runner.Expand(spec); err != nil {
		return 0, 0, err
	}
	expand = time.Since(t0)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), fabricTimeout)
	defer cancel()
	var first time.Time
	base := transport(b.workers)
	defer base.CloseIdleConnections()
	coord, wk, err := w.start(b, nil, &timedTransport{inner: base, atLease: func() {
		first = time.Now()
		cancel()
	}})
	if err != nil {
		return 0, 0, err
	}
	defer coord.Close()
	if _, err := wk.Run(ctx); first.IsZero() {
		return 0, 0, fmt.Errorf("fabric set-up never reached a lease request: %v", err)
	}
	return first.Sub(start), expand, nil
}

func (w *fabricGrid) run(b *bench) (*unitRun, error) { return w.sweep(b, nil, -1) }

func (w *fabricGrid) traced(b *bench, t *tracer, root int) (*unitRun, error) {
	return w.sweep(b, t, root)
}

// sweep runs the grid through the fabric once and stitches the result.
// Traced, the worker's transport times every protocol call and the
// coordinator keeps its fabric counters.
func (w *fabricGrid) sweep(b *bench, t *tracer, root int) (*unitRun, error) {
	start := time.Now()
	base := transport(b.workers)
	defer base.CloseIdleConnections()
	var rt http.RoundTripper = base
	var reg *telemetry.Registry
	if t != nil {
		rt = &timedTransport{inner: base, t: t, parent: root}
		reg = telemetry.NewRegistry()
	}
	coord, wk, err := w.start(b, reg, rt)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), fabricTimeout)
	defer cancel()
	if _, err := wk.Run(ctx); err != nil {
		return nil, err
	}
	if err := coord.Wait(ctx); err != nil {
		return nil, err
	}
	stitchStart := time.Now()
	sw, err := coord.Stitch()
	if err != nil {
		return nil, err
	}
	stitch := time.Since(stitchStart)
	u := sweepUnit(sw, time.Since(start))
	if t != nil {
		t.add(root, "Stitch", "fabric", stitchStart, stitch, 0)
		t.mu.Lock()
		t.fab.stitch += stitch
		t.self["fabric"] += stitch
		t.fab.jobs += len(u.jobs)
		for _, m := range reg.Snapshot(nil) {
			switch m.Name {
			case "fabric_records_duplicate_total":
				t.fab.duplicates += m.Value
			case "fabric_leases_expired_total":
				t.fab.expired += m.Value
			}
		}
		for i := range u.jobs {
			t.self["sim"] += u.jobs[i].elapsed
		}
		t.mu.Unlock()
	}
	return u, nil
}

func (w *fabricGrid) checkJob(*jobOut) string { return "" }

// check requires the stitched sweep to equal a single-process run of
// the same spec bit for bit.
func (w *fabricGrid) check(b *bench, u *unitRun) error {
	spec, err := gridBuilder(w.params)
	if err != nil {
		return err
	}
	sw, err := runner.Run(context.Background(), spec, runner.Options{Workers: b.workers})
	if err != nil {
		return err
	}
	if len(sw.Jobs) != len(u.jobs) {
		return fmt.Errorf("single-process run has %d jobs, the fabric stitched %d", len(sw.Jobs), len(u.jobs))
	}
	for i := range sw.Jobs {
		if sw.Jobs[i].Err != nil || !sameBits(sw.Jobs[i].Result, u.jobs[i].res) {
			b.failJob(&u.jobs[i], "stitched result differs from the single-process run")
		}
	}
	return nil
}
