package runner

// Durability on batched units. Journal, record streaming, checkpoints,
// retry, the watchdog and the cache apply per lane, so a batched sweep
// must leave the same artifacts — results, journal records, stitched
// trace, deterministic metrics — as the same sweep run one lane per
// unit (BatchSize: -1), and a batch that fails must rerun its lanes
// alone with per-job outcomes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
	"evclimate/internal/thermal"
)

// laneSpec is a batchable grid: On/Off and fuzzy over two cycles that
// share a truncated time grid and three environments — 12 jobs planned
// as two 6-lane batches. With thermalPlant every lane carries the
// battery thermal network, soaked at ambient.
func laneSpec(thermalPlant bool) Spec {
	spec := Spec{
		Controllers: []ControllerSpec{OnOffSpec(1), FuzzySpec(1)},
		Cycles:      []CycleSpec{{Name: "ECE15"}, {Name: "UDDS"}},
		Envs:        []Env{{AmbientC: 35, SolarW: 400}, {AmbientC: 10}, {AmbientC: -5}},
		Targets:     []float64{22},
		MaxProfileS: 150,
		BaseSeed:    2024,
	}
	if thermalPlant {
		base := sim.DefaultConfig(nil)
		th := thermal.DefaultThermal()
		base.Thermal = &th
		spec.Base = &base
		spec.StartFromAmbient = true
	}
	return spec
}

func laneJobs(t *testing.T, thermalPlant bool) []Job {
	t.Helper()
	jobs, err := Expand(laneSpec(thermalPlant))
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// laneArtifacts is everything a sweep leaves behind, with wall-clock
// fields cleared: record ElapsedNs and span latencies, and the
// non-deterministic metric series.
type laneArtifacts struct {
	jobs    []JobResult
	records []byte
	trace   []byte
	metrics []byte
}

// runLanes runs jobs with fresh telemetry and a trace log, collecting
// the journal (when opts has one) and any OnRecord stream.
func runLanes(t *testing.T, ctx context.Context, jobs []Job, opts Options) laneArtifacts {
	t.Helper()
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	opts.Telemetry, opts.TraceLog, opts.ManifestLabel = reg, tl, "lanes"
	var mu sync.Mutex
	var recs []*JournalRecord
	if opts.OnRecord != nil {
		opts.OnRecord = func(rec *JournalRecord) {
			mu.Lock()
			defer mu.Unlock()
			recs = append(recs, rec)
		}
	}
	out, err := RunJobs(ctx, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Journal != nil {
		rep, err := ReadJournal(findJournal(t, opts.Journal.Dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rep.Records {
			recs = append(recs, rec)
		}
	}
	return laneArtifacts{jobs: out, records: normalizedRecords(t, recs), trace: traceJSONL(t, tl), metrics: deterministicJSON(t, reg)}
}

// normalizedRecords renders job records in index order without their
// wall-clock content.
func normalizedRecords(t *testing.T, recs []*JournalRecord) []byte {
	t.Helper()
	sort.Slice(recs, func(a, b int) bool { return recs[a].Index < recs[b].Index })
	var buf bytes.Buffer
	for _, r := range recs {
		rec := *r
		rec.ElapsedNs = 0
		rec.Spans = append([]telemetry.StepSpan(nil), r.Spans...)
		for k := range rec.Spans {
			rec.Spans[k].LatencyNs = 0
		}
		rec.Metrics = nil
		for _, m := range r.Metrics {
			if telemetry.DeterministicFilter(m.Name) {
				rec.Metrics = append(rec.Metrics, m)
			}
		}
		line, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	return buf.Bytes()
}

// sameArtifacts requires byte-equal artifacts and equal per-job outcomes.
func sameArtifacts(t *testing.T, tag string, got, want laneArtifacts) {
	t.Helper()
	if len(got.jobs) != len(want.jobs) {
		t.Fatalf("%s: %d jobs, want %d", tag, len(got.jobs), len(want.jobs))
	}
	for i := range got.jobs {
		g, w := &got.jobs[i], &want.jobs[i]
		if !reflect.DeepEqual(g.Result, w.Result) {
			t.Errorf("%s: job %d result differs", tag, i)
		}
		if fmt.Sprint(g.Err) != fmt.Sprint(w.Err) || fmt.Sprint(g.AttemptErrs) != fmt.Sprint(w.AttemptErrs) {
			t.Errorf("%s: job %d errors %v %v, want %v %v", tag, i, g.Err, g.AttemptErrs, w.Err, w.AttemptErrs)
		}
		if g.Attempts != w.Attempts || g.Cached != w.Cached || g.EscalatedTo != w.EscalatedTo || g.Replayed != w.Replayed {
			t.Errorf("%s: job %d attempts/cached/escalated/replayed %d/%v/%q/%v, want %d/%v/%q/%v", tag, i,
				g.Attempts, g.Cached, g.EscalatedTo, g.Replayed, w.Attempts, w.Cached, w.EscalatedTo, w.Replayed)
		}
	}
	if !bytes.Equal(got.records, want.records) {
		t.Errorf("%s: job records differ:\n%s\nvs\n%s", tag, got.records, want.records)
	}
	if !bytes.Equal(got.trace, want.trace) {
		t.Errorf("%s: stitched trace differs", tag)
	}
	if !bytes.Equal(got.metrics, want.metrics) {
		t.Errorf("%s: deterministic metrics differ:\n%s\nvs\n%s", tag, got.metrics, want.metrics)
	}
}

// batchedLanes reports whether two lanes of the sweep shared one batch:
// a batch splits its wall-clock equally, so its lanes report the same
// nonzero Elapsed, which separately timed jobs do not.
func batchedLanes(jrs []JobResult) bool {
	seen := make(map[time.Duration]bool)
	for i := range jrs {
		if e := jrs[i].Elapsed; e > 0 {
			if seen[e] {
				return true
			}
			seen[e] = true
		}
	}
	return false
}

// TestBatchDurabilityMatchesLaneOfOne runs each durability mode on
// batched units, cabin-only and thermal, and requires the artifacts of
// the same sweep run one lane per unit.
func TestBatchDurabilityMatchesLaneOfOne(t *testing.T) {
	cases := []struct {
		name string
		opts func(dir string) Options
	}{
		{"journal", func(dir string) Options {
			return Options{Journal: &JournalConfig{Dir: dir, Git: "test-build"}}
		}},
		{"journal+checkpoint", func(dir string) Options {
			return Options{Journal: &JournalConfig{Dir: dir, Git: "test-build", CheckpointEvery: 40}}
		}},
		{"onrecord", func(string) Options { return Options{OnRecord: func(*JournalRecord) {}} }},
		{"retry", func(string) Options {
			return Options{Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}}
		}},
		{"watchdog", func(string) Options { return Options{JobTimeout: time.Minute} }},
		{"cache", func(string) Options { return Options{} }}, // cache attached below
	}
	for _, thermalPlant := range []bool{false, true} {
		jobs := laneJobs(t, thermalPlant)
		for _, c := range cases {
			tag := fmt.Sprintf("%s/thermal=%v", c.name, thermalPlant)
			run := func(batch, workers int) laneArtifacts {
				opts := c.opts(t.TempDir())
				opts.BatchSize, opts.Workers = batch, workers
				if c.name == "cache" {
					// Half of each batch's lanes hit the cache: those leave
					// their batch and finish alone, the rest still batch.
					opts.Cache = NewCache()
					var half []Job
					for i := range jobs {
						if i%4 < 2 {
							half = append(half, jobs[i])
						}
					}
					if _, err := RunJobs(context.Background(), half, Options{Cache: opts.Cache, BatchSize: -1}); err != nil {
						t.Fatal(err)
					}
				}
				return runLanes(t, context.Background(), jobs, opts)
			}
			ref := run(-1, 1)
			for i := range ref.jobs {
				if err := ref.jobs[i].Err; err != nil {
					t.Fatalf("%s: reference job %d: %v", tag, i, err)
				}
			}
			got := run(0, 2)
			if !batchedLanes(got.jobs) {
				t.Errorf("%s: no two lanes shared a batch", tag)
			}
			sameArtifacts(t, tag, got, ref)
		}
	}
}

// countdownCtx reports cancellation once Err has been called more than
// after times. A single-worker sweep checks Err in a fixed order — once
// per unit, per lane finish, and per control step inside the
// simulation — so this interrupts at a chosen step, deterministically.
type countdownCtx struct {
	context.Context
	calls, after atomic.Int64
	done         chan struct{}
	once         sync.Once
}

func newCountdownCtx(after int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.after.Store(after)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) <= c.after.Load() {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestBatchCheckpointInterruptResume interrupts a journaled,
// checkpointing sweep inside a batch, then resumes it: every lane of
// the drained batch leaves a mid-cycle checkpoint, and the resumed
// sweep's artifacts are byte-equal to an uninterrupted one-lane-per-unit
// run.
func TestBatchCheckpointInterruptResume(t *testing.T) {
	jobs := laneJobs(t, false)
	journal := func(dir string, resume bool) Options {
		return Options{Workers: 1, Journal: &JournalConfig{Dir: dir, Resume: resume, Git: "test-build", CheckpointEvery: 25}}
	}

	// Count the Err checks of a whole sweep, then stop three quarters
	// of the way through: inside the second batch's time loop.
	probe := newCountdownCtx(math.MaxInt64)
	runLanes(t, probe, jobs, journal(t.TempDir(), false))
	ctx := newCountdownCtx(probe.calls.Load() * 3 / 4)

	dir := t.TempDir()
	first := runLanes(t, ctx, jobs, journal(dir, false))
	var drained []int
	for i := range first.jobs {
		if first.jobs[i].Err != nil {
			if !errors.Is(first.jobs[i].Err, context.Canceled) {
				t.Fatalf("job %d: %v, want cancellation", i, first.jobs[i].Err)
			}
			drained = append(drained, i)
		}
	}
	if len(drained) < 2 || len(drained) == len(jobs) {
		t.Fatalf("drained %d of %d jobs; want part of the sweep inside a batch", len(drained), len(jobs))
	}
	t.Logf("interrupted after %d of %d Err checks: drained jobs %v", ctx.after.Load(), probe.calls.Load(), drained)
	for _, i := range drained {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ckpt-%s.json", telemetry.FormatFingerprint(jobs[i].Fingerprint()))))
		if err != nil {
			t.Fatalf("drained job %d left no checkpoint: %v", i, err)
		}
		var jc jobCheckpoint
		if err := json.Unmarshal(data, &jc); err != nil {
			t.Fatal(err)
		}
		if jc.Checkpoint == nil || jc.Checkpoint.Step <= 0 || jc.Checkpoint.Step >= 150 {
			t.Fatalf("job %d checkpoint %+v, want a mid-cycle step", i, jc.Checkpoint)
		}
	}

	resumed := runLanes(t, context.Background(), jobs, journal(dir, true))
	refOpts := journal(t.TempDir(), false)
	refOpts.BatchSize = -1
	ref := runLanes(t, context.Background(), jobs, refOpts)
	for i := range resumed.jobs {
		ref.jobs[i].Replayed = resumed.jobs[i].Replayed // replay is the point of resuming
	}
	sameArtifacts(t, "resumed", resumed, ref)
	if left, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(left) > 0 {
		t.Errorf("checkpoints left after a finished sweep: %v", left)
	}
}

// stepSink is a job-config telemetry sink that sleeps every tenth
// control step, or panics at one: a lane that is slow or diverges on its
// own, inside an otherwise healthy SoA batch. It does not perturb the
// trajectory, and the fingerprint ignores it.
type stepSink struct {
	telemetry.Sink
	delay   time.Duration
	panicAt int
}

func (s stepSink) Active() bool { return true }
func (s stepSink) Step(span *telemetry.StepSpan) {
	if s.panicAt > 0 && span.Step == s.panicAt {
		panic("lane diverged")
	}
	if span.Step%10 == 0 {
		time.Sleep(s.delay)
	}
}

// TestBatchWatchdogFailsOnlySlowLane trips a batch's n × JobTimeout
// deadline with one lane that overruns JobTimeout on its own. The lanes
// rerun alone: only that lane fails with DeadlineExceeded; a lane that
// is slow but within its own budget, and the fast lanes, succeed on
// their first attempt with the results of an unbatched run. A batch
// slower than JobTimeout but within n × JobTimeout is not rerun.
func TestBatchWatchdogFailsOnlySlowLane(t *testing.T) {
	spec := laneSpec(false)
	spec.Controllers = spec.Controllers[:1]
	spec.Cycles = spec.Cycles[:1]
	spec.Envs = append(spec.Envs, Env{AmbientC: 20})
	jobs, err := Expand(spec) // four On/Off lanes of one grid: one batch
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunJobs(context.Background(), jobs, Options{Workers: 1, BatchSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	const slow, crawl = 1, 2
	slowSink := stepSink{Sink: telemetry.Nop, delay: 3 * time.Millisecond} // ~45 ms alone
	jobs[slow].Config.Telemetry = slowSink
	jobs[crawl].Config.Telemetry = stepSink{Sink: telemetry.Nop, delay: 100 * time.Millisecond} // ~1.5 s alone

	got, err := RunJobs(context.Background(), jobs, Options{Workers: 1, JobTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		jr := &got[i]
		if i == crawl {
			if !errors.Is(jr.Err, context.DeadlineExceeded) || jr.Attempts != 1 {
				t.Errorf("crawling lane: err %v, attempts %d; want one DeadlineExceeded attempt", jr.Err, jr.Attempts)
			}
			continue
		}
		if jr.Err != nil || jr.Attempts != 1 {
			t.Errorf("lane %d: err %v, attempts %d; want a first-attempt success", i, jr.Err, jr.Attempts)
		}
		if !reflect.DeepEqual(jr.Result, ref[i].Result) {
			t.Errorf("lane %d: result differs from an unbatched run", i)
		}
	}

	// Four lanes of ~45 ms each: the batch overruns JobTimeout but not
	// its 4 × JobTimeout deadline, so the lanes finish together.
	for i := range jobs {
		jobs[i].Config.Telemetry = slowSink
	}
	got, err = RunJobs(context.Background(), jobs, Options{Workers: 1, JobTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if jr := &got[i]; jr.Err != nil || jr.Attempts != 1 {
			t.Errorf("slow batch, lane %d: err %v, attempts %d", i, jr.Err, jr.Attempts)
		}
	}
	if !batchedLanes(got) {
		t.Error("a batch within its n × JobTimeout deadline was rerun lane by lane")
	}
}

// TestBatchRetryPanickingLane puts a lane that panics mid-run into a
// journaled, retrying batch: the batch fails, every lane reruns alone,
// and outcomes and journal records — the panicking lane's attempts,
// errors and text included — match the one-lane-per-unit sweep.
func TestBatchRetryPanickingLane(t *testing.T) {
	jobs := laneJobs(t, false)
	const bad = 4
	jobs[bad].Config.Telemetry = stepSink{Sink: telemetry.Nop, panicAt: 60}
	run := func(batch int) ([]JobResult, []byte) {
		dir := t.TempDir()
		out, err := RunJobs(context.Background(), jobs, Options{
			Workers: 2, BatchSize: batch, ManifestLabel: "lanes",
			Journal: &JournalConfig{Dir: dir, Git: "test-build"},
			Retry:   RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ReadJournal(findJournal(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		var recs []*JournalRecord
		for _, rec := range rep.Records {
			recs = append(recs, rec)
		}
		return out, normalizedRecords(t, recs)
	}
	got, gotRecs := run(0)
	want, wantRecs := run(-1)
	sameArtifacts(t, "panicking lane", laneArtifacts{jobs: got, records: gotRecs}, laneArtifacts{jobs: want, records: wantRecs})
	if jr := &got[bad]; !errors.Is(jr.Err, ErrJobPanicked) || jr.Attempts != 2 || len(jr.AttemptErrs) != 1 {
		t.Errorf("panicking lane: err %v, attempts %d, attempt errors %v", jr.Err, jr.Attempts, jr.AttemptErrs)
	}
}

// TestBatchFailingLanesIsolated puts two lanes that sim rejects into
// batches: one whose configuration fails validation, one whose plant
// diverges mid-run. Both batches fail and rerun their lanes alone, so
// the sweep leaves the artifacts of a one-lane-per-unit run — no
// telemetry from the failed batches, each failing lane with the error
// it gives alone (sim.New's, for the invalid configuration) — and the
// siblings succeed.
func TestBatchFailingLanesIsolated(t *testing.T) {
	jobs := laneJobs(t, false)
	const invalid, diverging = 2, 9 // an On/Off and a fuzzy lane: both batches fail
	jobs[invalid].Config.SettleS = -1
	jobs[diverging].Config.Cabin.ThermalCapacitanceJK = 10 // RK4-unstable: non-finite after ~40 steps
	_, want := sim.New(jobs[invalid].Config)
	if want == nil {
		t.Fatal("sim accepted the invalid configuration")
	}
	pe := &poolEnv{jobs: jobs}
	batched := 0
	for _, u := range pe.planUnits(make([]bool, len(jobs))) {
		for _, i := range u {
			if (i == invalid || i == diverging) && len(u) > 1 {
				batched++
			}
		}
	}
	if batched != 2 {
		t.Fatalf("%d of the 2 failing lanes were planned into a batch", batched)
	}

	run := func(batch int) laneArtifacts {
		return runLanes(t, context.Background(), jobs, Options{
			Workers: 2, BatchSize: batch, Journal: &JournalConfig{Dir: t.TempDir(), Git: "test-build"},
		})
	}
	got := run(0)
	sameArtifacts(t, "failing lanes", got, run(-1))
	for i := range got.jobs {
		jr := &got.jobs[i]
		switch i {
		case invalid:
			if jr.Err == nil || jr.Err.Error() != want.Error() || jr.Attempts != 1 {
				t.Errorf("invalid lane: err %v, attempts %d; want %q", jr.Err, jr.Attempts, want)
			}
		case diverging:
			if jr.Err == nil || !strings.Contains(jr.Err.Error(), "non-finite") {
				t.Errorf("diverging lane: err %v, want a non-finite plant state", jr.Err)
			}
		default:
			if jr.Err != nil || jr.Result == nil {
				t.Errorf("sibling %d: %v", i, jr.Err)
			}
		}
	}
	if !bytes.Contains(got.records, []byte(want.Error())) {
		t.Error("the invalid lane's journal record lacks its error")
	}
}
