// Command perfbench is the repository benchmark. It runs one seeded
// workload against the simulator's public packages, checks every
// output, and prints its metrics, ending with one JSON result line:
//
//	bash perfbench/run.sh --workload paper-mpc --seed 0 --seconds 22 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// also runs the workload traced and prints the per-layer metrics.
// README.md in this directory defines the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"evclimate/internal/experiments"
	"evclimate/internal/runner"
	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one benchmark input set. A unit is one execution of its
// work: regenerating an artifact or running a sweep.
type workload interface {
	// setup generates the unit's inputs and runs what precedes its first
	// dispatched job, returning that time and the part spent in
	// runner.Expand.
	setup(b *bench) (setup, expand time.Duration, err error)
	// run executes one unit untraced.
	run(b *bench) (*unitRun, error)
	// traced executes one unit with its layers timed, recording spans
	// under the root span.
	traced(b *bench, t *tracer, root int) (*unitRun, error)
	// checkJob returns why one job fails the workload's own check, or "".
	checkJob(j *jobOut) string
	// check runs the workload's whole-unit checks on its first unit.
	check(b *bench, u *unitRun) error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-mpc", "baseline-grid", "fabric-grid", "cold-mpc"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "paper-mpc":
		return &paperMPC{p: paperConditions(seed)}, nil
	case "baseline-grid":
		return &baselineGrid{seed: seed}, nil
	case "fabric-grid":
		return newFabricGrid(seed), nil
	case "cold-mpc":
		return &coldMPC{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// jobOut is one job's outcome, reduced to what checks and metrics read.
type jobOut struct {
	family, cycle string
	res           *sim.Result
	err           error
	elapsed       time.Duration
	failed        bool
}

func outOf(j *runner.Job) jobOut {
	return jobOut{family: family(j.Controller.Label), cycle: j.Cycle}
}

// unitRun is one unit's outcome: its jobs in expansion order.
type unitRun struct {
	wall time.Duration
	jobs []jobOut
	// pool is the wall time of the runner calls the jobs' elapsed times
	// were measured in (0 when the jobs ran out of the benchmark's
	// sight, inside an experiments harness).
	pool time.Duration
	// phases are named parts of the wall time.
	phases map[string]time.Duration
}

func sweepUnit(sw *runner.Sweep, wall time.Duration) *unitRun {
	u := &unitRun{wall: wall, pool: wall}
	for i := range sw.Jobs {
		jr := &sw.Jobs[i]
		j := outOf(&jr.Job)
		j.res, j.err, j.elapsed = jr.Result, jr.Err, jr.Elapsed
		u.jobs = append(u.jobs, j)
	}
	return u
}

// families are the controller families per-family metrics cover.
var families = []string{"onoff", "fuzzy", "mpc", "thermal_mpc"}

func family(label string) string {
	switch label {
	case experiments.NameOnOff:
		return "onoff"
	case experiments.NameFuzzy:
		return "fuzzy"
	case experiments.NameMPC:
		return "mpc"
	case experiments.NameThermalMPC:
		return "thermal_mpc"
	}
	return "other"
}

// stamp identifies a result: what ran, where, and from which source.
type stamp struct {
	Command    string `json:"command"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Git        string `json:"git_describe"`
}

// bench is one benchmark process: its settings and the outcome so far.
type bench struct {
	seed    int64
	seconds time.Duration
	// workers is nproc: GOMAXPROCS, the pool size and the fabric's
	// connection cap.
	workers int
	stamp   stamp

	attempted, failed int
	reasons           []string
	// ref holds the first unit's result digests; every later unit,
	// traced ones included, must reproduce them.
	ref []uint64
}

// failJob marks a job failed, once, and keeps the first reasons.
func (b *bench) failJob(j *jobOut, reason string) {
	if j.failed {
		return
	}
	j.failed = true
	b.failed++
	if len(b.reasons) < 10 {
		b.reasons = append(b.reasons, j.family+" on "+j.cycle+": "+reason)
	}
}

// checkUnit runs the common checks on every job (no error, finite
// results, the workload's per-job check), then either records the unit
// as the reference and runs the workload's unit checks, or requires it
// to reproduce the reference bit for bit.
func (b *bench) checkUnit(w workload, u *unitRun) error {
	sums := make([]uint64, len(u.jobs))
	for i := range u.jobs {
		j := &u.jobs[i]
		b.attempted++
		if j.err != nil {
			b.failJob(j, j.err.Error())
			continue
		}
		sum, nonFinite, err := digest(j.res)
		if err != nil {
			return err
		}
		sums[i] = sum
		if nonFinite > 0 {
			b.failJob(j, fmt.Sprintf("%d non-finite result values", nonFinite))
		}
		if reason := w.checkJob(j); reason != "" {
			b.failJob(j, reason)
		}
	}
	if b.ref == nil {
		b.ref = sums
		return w.check(b, u)
	}
	if len(sums) != len(b.ref) {
		return fmt.Errorf("unit ran %d jobs, the first ran %d", len(sums), len(b.ref))
	}
	for i := range sums {
		if sums[i] != b.ref[i] {
			b.failJob(&u.jobs[i], "result differs from the first unit's")
		}
	}
	return nil
}

// phase accumulates the measured units of one mode (untraced or traced).
type phase struct {
	walls      []float64 // per unit, steal-adjusted, s
	rawWalls   []float64 // per unit as measured, s
	scenarios  int
	cpu, span  time.Duration // process CPU time and wall time over the units
	steal      time.Duration
	alloc      uint64
	gc         uint32
	busy, pool time.Duration // Σ job elapsed, Σ runner-call wall
	jobMs      map[string][]float64
	parts      map[string][]float64
}

func (ph *phase) add(u *unitRun, p0, p1 procSample) {
	adj := stealAdjusted(u.wall, p0, p1)
	ph.walls = append(ph.walls, adj.Seconds())
	ph.rawWalls = append(ph.rawWalls, u.wall.Seconds())
	ph.scenarios += len(u.jobs)
	ph.cpu += p1.cpu - p0.cpu
	ph.steal += p1.steal - p0.steal
	ph.span += p1.at.Sub(p0.at)
	ph.alloc += p1.alloc - p0.alloc
	ph.gc += p1.gc - p0.gc
	if u.pool > 0 {
		ph.pool += u.pool
		for i := range u.jobs {
			ph.busy += u.jobs[i].elapsed
			ph.jobMs[u.jobs[i].family] = append(ph.jobMs[u.jobs[i].family], ms(u.jobs[i].elapsed))
		}
	}
	for k, v := range u.phases {
		ph.parts[k] = append(ph.parts[k], v.Seconds()*adj.Seconds()/u.wall.Seconds())
	}
}

// measure runs units of the workload — traced when t is set — and
// checks each. With n == 0 it starts another unit while that unit, at
// the mean length so far, would end less than half a unit past
// --seconds (so at least one unit); otherwise it runs exactly n units.
func (b *bench) measure(w workload, t *tracer, n int) (*phase, error) {
	ph := &phase{jobMs: map[string][]float64{}, parts: map[string][]float64{}}
	for k := 0; n == 0 || k < n; k++ {
		if n == 0 && k > 0 && ph.span+ph.span/time.Duration(2*k) > b.seconds {
			break
		}
		runtime.GC() // every unit starts from a collected heap
		p0 := sampleProc()
		var u *unitRun
		var err error
		if t == nil {
			u, err = w.run(b)
		} else {
			root := t.add(-1, "unit", "bench", p0.at, 0, 0)
			if u, err = w.traced(b, t, root); err == nil {
				t.mu.Lock()
				t.spans[root].Dur = u.wall.Seconds()
				t.mu.Unlock()
			}
		}
		if err != nil {
			return nil, err
		}
		ph.add(u, p0, sampleProc())
		if err := b.checkUnit(w, u); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// A run sets its workload up setupReps times, or fewer once set-up has
// taken setupBudget (never fewer than setupMinReps); setup_s is the
// median. Set-ups last from a fraction of a millisecond (paper-mpc) to
// about 150 ms (fabric-grid).
const (
	setupReps    = 21
	setupMinReps = 5
	setupBudget  = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info is printed beside the metrics but is not part of the result.
	info map[string]metric
	// reasons are the first failed checks, printed to standard error.
	reasons []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 0, "input seed (0 = the paper's conditions for paper-mpc)")
	seconds := fs.Float64("seconds", 22, "measured time per run, s")
	traceFlag := fs.Int("trace", 0, "1 = also run traced and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload NAME --seed N --seconds S --trace 0|1:", err)
		return 2
	}
	res, st, t, err := measureAll(w, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if t != nil {
		if err := writeTrace(st, t); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return report(stdout, stderr, st, res)
}

// measureAll sets the workload up, measures it untraced and, when
// asked, traced, and assembles the metrics.
func measureAll(w workload, name string, seed int64, seconds time.Duration, traced bool) (*result, stamp, *tracer, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	b := &bench{seed: seed, seconds: seconds, workers: nproc}
	b.stamp = stamp{
		Command:    os.Getenv("PERFBENCH_COMMAND"),
		Workload:   name,
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      nproc,
		CPU:        cpuModel(),
		Git:        telemetry.GitDescribe(""),
	}
	if b.stamp.Command == "" {
		b.stamp.Command = strings.Join(os.Args, " ")
	}

	var setups, expands []float64
	setupStart := time.Now()
	for k := 0; k < setupReps && (k < setupMinReps || time.Since(setupStart) < setupBudget); k++ {
		s, e, err := w.setup(b)
		if err != nil {
			return nil, b.stamp, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.Seconds())
		expands = append(expands, e.Seconds())
	}
	un, err := b.measure(w, nil, 0)
	if err != nil {
		return nil, b.stamp, nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	var t *tracer
	if traced {
		t = newTracer()
		tr, err := b.measure(w, t, len(un.walls))
		if err != nil {
			return nil, b.stamp, nil, fmt.Errorf("traced run: %w", err)
		}
		layerMetrics(res.Metrics, b, un, tr, t, expands)
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, b.stamp, nil, err
		}
		res.Metrics["wall_s"] = metric{median(un.walls), "s"}
		res.Metrics["scenarios_per_s"] = metric{float64(un.scenarios) / sum(un.walls), "1/s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
		// A set-up lasts milliseconds, below the 10 ms resolution of the
		// steal counter, so it takes the measured units' steal factor.
		stealFrac := 0.0
		if un.steal > 0 {
			stealFrac = un.steal.Seconds() / (un.cpu + un.steal).Seconds()
		}
		res.Metrics["setup_s"] = metric{median(setups) * (1 - stealFrac), "s"}
		res.info = map[string]metric{
			"wall_unadjusted_s": {median(un.rawWalls), "s"},
			"steal_frac":        {stealFrac, "1"},
			"units":             {float64(len(un.walls)), "count"},
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0 && b.attempted > 0
	res.reasons = b.reasons
	return res, b.stamp, t, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// report prints every metric by name and unit, the stamp, and the
// result line last. It exits 1 when an output check failed.
func report(stdout, stderr io.Writer, st stamp, res *result) int {
	for _, r := range res.reasons {
		fmt.Fprintln(stderr, "perfbench: check failed:", r)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "%-36s %14.6g %s\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), "1")
	names = names[:0]
	for n := range res.info {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %14.6g %s (not a result metric)\n", n, res.info[n].Value, res.info[n].Unit)
	}
	line, err := json.Marshal(struct {
		Stamp stamp `json:"stamp"`
	}{st})
	if err == nil {
		fmt.Fprintf(stdout, "%s\n", line)
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeTrace writes the traced run's spans and self times, stamped,
// under the build directory the run script uses.
func writeTrace(st stamp, t *tracer) error {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self := map[string]float64{}
	for k, v := range t.self {
		self[k] = v.Seconds()
	}
	data, err := json.Marshal(struct {
		Stamp stamp              `json:"stamp"`
		Self  map[string]float64 `json:"self_s"`
		Spans []span             `json:"spans"`
	}{st, self, t.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", st.Workload, st.Seed))
	return os.WriteFile(path, data, 0o644)
}
