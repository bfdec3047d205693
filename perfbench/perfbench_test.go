package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"evclimate/internal/control"
	"evclimate/internal/core"
	"evclimate/internal/experiments"
	"evclimate/internal/runner"
	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

// specsFor returns the sweeps a workload runs for a seed.
func specsFor(t *testing.T, name string, seed int64) []runner.Spec {
	t.Helper()
	switch name {
	case "paper-mpc":
		fig7, table1 := paperConditions(seed).specs()
		return []runner.Spec{fig7, table1}
	case "baseline-grid":
		return []runner.Spec{gridSpec(seed, baselineEnvs)}
	case "fabric-grid":
		spec, err := gridBuilder(newFabricGrid(seed).params)
		if err != nil {
			t.Fatal(err)
		}
		return []runner.Spec{spec}
	case "cold-mpc":
		spec, err := coldSpec(seed)
		if err != nil {
			t.Fatal(err)
		}
		return []runner.Spec{spec}
	}
	t.Fatalf("no specs for %q", name)
	return nil
}

func fingerprints(t *testing.T, specs []runner.Spec) []uint64 {
	t.Helper()
	var out []uint64
	for _, s := range specs {
		jobs, err := runner.Expand(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, runner.SweepFingerprint(jobs))
	}
	return out
}

func TestSeedsMapToFingerprints(t *testing.T) {
	for _, name := range workloadNames {
		a := fingerprints(t, specsFor(t, name, 7))
		again := fingerprints(t, specsFor(t, name, 7))
		other := fingerprints(t, specsFor(t, name, 8))
		for k := range a {
			if a[k] != again[k] {
				t.Errorf("%s sweep %d: seed 7 fingerprints %x then %x", name, k, a[k], again[k])
			}
			if a[k] == other[k] {
				t.Errorf("%s sweep %d: seeds 7 and 8 share fingerprint %x", name, k, a[k])
			}
		}
	}
}

// TestPaperSpecsMatchHarnesses pins the traced run's sweeps to what
// experiments.RunCycles and experiments.Table1 expand at full length,
// at the paper's conditions and at a perturbed seed.
func TestPaperSpecsMatchHarnesses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-length paper artifacts")
	}
	for _, seed := range []int64{0, 3} {
		p := paperConditions(seed)
		opts := p.options(0)
		opts.Manifest = telemetry.NewManifest("perfbench-test")
		if _, err := experiments.RunCycles(opts); err != nil {
			t.Fatal(err)
		}
		if _, err := experiments.Table1(opts, p.table1); err != nil {
			t.Fatal(err)
		}
		fig7, table1 := p.specs()
		specs := []runner.Spec{fig7, table1}
		if len(opts.Manifest.Runs) != len(specs) {
			t.Fatalf("seed %d: harnesses recorded %d sweeps, want %d", seed, len(opts.Manifest.Runs), len(specs))
		}
		for k, s := range specs {
			jobs, err := runner.Expand(s)
			if err != nil {
				t.Fatal(err)
			}
			run := opts.Manifest.Runs[k]
			if len(run.Jobs) != len(jobs) {
				t.Fatalf("seed %d sweep %d: harness expanded %d jobs, spec %d", seed, k, len(run.Jobs), len(jobs))
			}
			for i := range jobs {
				if got := telemetry.FormatFingerprint(jobs[i].Fingerprint()); got != run.Jobs[i].Fingerprint {
					t.Errorf("seed %d sweep %d job %d: spec %s, harness %s", seed, k, i, got, run.Jobs[i].Fingerprint)
				}
			}
		}
	}
}

// wrapperJobs are one short cycle under On/Off, fuzzy, MPC and thermal
// MPC, the thermal MPC on the cold template.
func wrapperJobs(t *testing.T) []runner.Job {
	t.Helper()
	spec := gridSpec(1, 1)
	spec.Cycles = []runner.CycleSpec{{Name: "ECE15"}}
	spec.Targets = []float64{24}
	spec.MaxProfileS = 60
	spec.Controllers = append(spec.Controllers, runner.MPCSpec(core.DefaultConfig(), 5))
	jobs, err := runner.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldSpec(1)
	if err != nil {
		t.Fatal(err)
	}
	cold.MaxProfileS = 60
	cold.Envs = cold.Envs[len(cold.Envs)-1:]
	cjobs, err := runner.Expand(cold)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range cjobs {
		if family(j.Controller.Label) == "thermal_mpc" {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

func TestTimedControllerIsBitIdentical(t *testing.T) {
	jobs := wrapperJobs(t)
	tr := newTracer()
	timed := make([]runner.Job, len(jobs))
	for i := range jobs {
		timed[i] = jobs[i]
		timed[i].Controller = tr.timedSpec(jobs[i].Controller)
	}
	opts := runner.Options{Workers: 1, BatchSize: -1}
	plain, err := runner.RunJobs(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := runner.RunJobs(context.Background(), timed, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range jobs {
		label := jobs[i].Controller.Label
		seen[family(label)] = true
		if plain[i].Err != nil || wrapped[i].Err != nil {
			t.Fatalf("%s: errors %v / %v", label, plain[i].Err, wrapped[i].Err)
		}
		if !sameBits(plain[i].Result, wrapped[i].Result) {
			t.Errorf("%s: timed controller changed the result", label)
		}
		tc, ok := wrapped[i].Instance.(*timedCtrl)
		if !ok || len(tc.decides) == 0 {
			t.Errorf("%s: no timed decisions recorded", label)
		}
	}
	for _, f := range families {
		if !seen[f] {
			t.Errorf("family %s not covered", f)
		}
	}
}

func TestTimedBatchIsBitIdentical(t *testing.T) {
	var jobs []runner.Job
	for _, j := range wrapperJobs(t) {
		if f := family(j.Controller.Label); f == "onoff" || f == "fuzzy" {
			jobs = append(jobs, j)
		}
	}
	for _, j := range jobs {
		run := func(wrap bool) *sim.Result {
			br, err := sim.NewBatch([]sim.Config{j.Config, j.Config})
			if err != nil {
				t.Fatal(err)
			}
			var ctrls []control.Controller
			for k := 0; k < 2; k++ {
				c, err := j.Controller.New()
				if err != nil {
					t.Fatal(err)
				}
				ctrls = append(ctrls, c)
			}
			var bc control.BatchController = control.Batch(ctrls)
			if wrap {
				bc = &timedBatch{inner: bc}
			}
			rs, err := br.Run(bc)
			if err != nil {
				t.Fatal(err)
			}
			return rs[1]
		}
		if !sameBits(run(false), run(true)) {
			t.Errorf("%s: timed batch changed the result", j.Controller.Label)
		}
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	r := &sim.Result{AvgHVACW: 1, Trace: sim.Trace{CabinC: []float64{24, 25}}}
	base, nonFinite, err := digest(r)
	if err != nil || nonFinite != 0 {
		t.Fatal(nonFinite, err)
	}
	changes := []func(*sim.Result){
		func(r *sim.Result) { r.AvgHVACW = math.Nextafter(1, 2) },
		func(r *sim.Result) { r.Trace.CabinC[1] = math.Nextafter(25, 0) },
		func(r *sim.Result) { r.Trace.CabinC = r.Trace.CabinC[:1] },
		func(r *sim.Result) { r.DeltaSoH = math.Copysign(0, -1) },
		func(r *sim.Result) { r.Events.ChargeClipped = 1 },
	}
	for k, change := range changes {
		c := *r
		c.Trace.CabinC = append([]float64(nil), r.Trace.CabinC...)
		change(&c)
		if d, _, _ := digest(&c); d == base {
			t.Errorf("change %d not seen", k)
		}
	}
	r.SoCAvg = math.NaN()
	if _, nonFinite, _ := digest(r); nonFinite != 1 {
		t.Errorf("non-finite count %d, want 1", nonFinite)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and the
// workload list in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !equalStrings(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}

	ph := func() *phase {
		return &phase{walls: []float64{1}, jobMs: map[string][]float64{}, parts: map[string][]float64{}}
	}
	layer := map[string]metric{}
	layerMetrics(layer, &bench{workers: 2}, ph(), ph(), newTracer(), []float64{1})
	e2e := map[string]metric{"wall_s": {0, "s"}, "scenarios_per_s": {0, "1/s"}, "peak_rss_mb": {0, "MiB"}, "setup_s": {0, "s"}}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  map[string]metric
	}{{spec.EndToEnd, e2e}, {spec.PerLayer, layer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark prints %d", len(c.declared), len(c.printed))
		}
		for _, m := range c.declared {
			if p, ok := c.printed[m.Name]; !ok || p.Unit != m.Unit {
				t.Errorf("metric %s (%s): printed %+v, %v", m.Name, m.Unit, p, ok)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
