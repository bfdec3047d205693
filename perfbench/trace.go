package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/fabric"
	"evclimate/internal/runner"
	"evclimate/internal/telemetry"
)

// The traced run records spans from the benchmark's own side of each
// layer boundary: around runner and fabric calls, inside a controller
// wrapper handed to the runner through ControllerSpec.New, inside a
// BatchController wrapper for replayed lockstep batches, and inside the
// fabric worker's HTTP transport. Spans stay in memory and are written
// out when the benchmark ends.

// span is one timed interval. Times are seconds since the tracer
// started. An aggregate span (Count > 0) stands for Count calls whose
// durations it sums.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_s"`
	Dur    float64 `json:"dur_s"`
	Count  int     `json:"count,omitempty"`
}

// tracer collects one process's traced units.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ctrls []*timedCtrl

	// Self time per layer, in worker-seconds.
	self map[string]time.Duration

	// Replayed lockstep batches.
	batchRun    time.Duration // Σ NewBatch + Run per batch
	decideAll   time.Duration // Σ DecideAll
	laneDecides int64         // Σ lanes × DecideAll calls
	laneSteps   int64         // Σ lanes × control steps

	fab fabricTrace
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string]time.Duration{}}
}

// add records a span and returns its id; parent -1 makes a root.
func (t *tracer) add(parent int, name, layer string, start time.Time, dur time.Duration, count int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Start: start.Sub(t.t0).Seconds(), Dur: dur.Seconds(), Count: count,
	})
	return id
}

func (t *tracer) addSelf(layer string, d time.Duration) {
	t.mu.Lock()
	t.self[layer] += d
	t.mu.Unlock()
}

// timedSpec wraps a controller spec so every instance it builds is a
// timedCtrl registered with the tracer. Label and Key are unchanged,
// so the jobs keep their fingerprints.
func (t *tracer) timedSpec(cs runner.ControllerSpec) runner.ControllerSpec {
	build := cs.New
	family := family(cs.Label)
	cs.New = func() (control.Controller, error) {
		c, err := build()
		if err != nil {
			return nil, err
		}
		tc := &timedCtrl{inner: c, family: family}
		t.mu.Lock()
		t.ctrls = append(t.ctrls, tc)
		t.mu.Unlock()
		return tc, nil
	}
	return cs
}

// jobDone is the traced runner's progress callback: it records the
// finished job's span (ending now, lasting its elapsed time), the
// decisions of its controller, and the job's sim self time.
func (t *tracer) jobDone(parent int, jr *runner.JobResult) {
	end := time.Now()
	id := t.add(parent, jr.Job.Controller.Label+" on "+jr.Job.Cycle, "sim", end.Add(-jr.Elapsed), jr.Elapsed, 0)
	sim := jr.Elapsed
	if tc, ok := jr.Instance.(*timedCtrl); ok {
		layer := "control"
		if tc.family == "mpc" || tc.family == "thermal_mpc" {
			layer = "core"
		}
		var decided time.Duration
		for _, d := range tc.decides {
			t.add(id, "decide", layer, d.start, d.dur, 0)
			decided += d.dur
		}
		t.addSelf(layer, decided)
		sim -= decided
	}
	t.addSelf("sim", sim)
}

// decideRec is one timed Decide call and the solver work it reported.
type decideRec struct {
	start    time.Time
	dur      time.Duration
	sqp, qp  int
	status   string
	reported bool // the controller implements control.SolveReporter
}

// timedCtrl times every Decide of a scalar controller and reads the
// solver's iteration counts after it. It forwards every optional
// interface the sim engine probes for; where the wrapped controller
// lacks one, the method returns that interface's neutral answer.
type timedCtrl struct {
	inner   control.Controller
	family  string
	decides []decideRec
}

func (c *timedCtrl) Name() string { return c.inner.Name() }
func (c *timedCtrl) Reset()       { c.inner.Reset() }

func (c *timedCtrl) Decide(ctx control.StepContext) cabin.Inputs {
	start := time.Now()
	u := c.inner.Decide(ctx)
	rec := decideRec{start: start, dur: time.Since(start)}
	if sr, ok := c.inner.(control.SolveReporter); ok {
		si := sr.LastSolve()
		rec.sqp, rec.qp, rec.status, rec.reported = si.Iterations, si.QPIterations, si.Status, true
	}
	c.decides = append(c.decides, rec)
	return u
}

func (c *timedCtrl) LastSolve() control.SolveInfo {
	if sr, ok := c.inner.(control.SolveReporter); ok {
		return sr.LastSolve()
	}
	return control.SolveInfo{}
}

func (c *timedCtrl) Level() int {
	if lr, ok := c.inner.(control.LadderReporter); ok {
		return lr.Level()
	}
	return 0
}

func (c *timedCtrl) ActiveStage() string {
	if lr, ok := c.inner.(control.LadderReporter); ok {
		return lr.ActiveStage()
	}
	return ""
}

func (c *timedCtrl) BindTelemetry(tel telemetry.Sink) {
	if tb, ok := c.inner.(control.TelemetryBinder); ok {
		tb.BindTelemetry(tel)
	}
}

var errNoSnapshot = errors.New("perfbench: wrapped controller has no state snapshot")

func (c *timedCtrl) StateSnapshot() (json.RawMessage, error) {
	if s, ok := c.inner.(control.Snapshotter); ok {
		return s.StateSnapshot()
	}
	return nil, errNoSnapshot
}

func (c *timedCtrl) RestoreState(raw json.RawMessage) error {
	if s, ok := c.inner.(control.Snapshotter); ok {
		return s.RestoreState(raw)
	}
	return errNoSnapshot
}

func (c *timedCtrl) Healthy() error {
	if h, ok := c.inner.(control.HealthReporter); ok {
		return h.Healthy()
	}
	return nil
}

// timedBatch times every DecideAll of a lockstep batch controller and
// forwards LaneSyncer, so lane controllers reflect the run afterwards
// exactly as without the wrapper.
type timedBatch struct {
	inner control.BatchController
	calls int
	dur   time.Duration
}

func (b *timedBatch) Lanes() int                    { return b.inner.Lanes() }
func (b *timedBatch) Lane(i int) control.Controller { return b.inner.Lane(i) }
func (b *timedBatch) Reset()                        { b.inner.Reset() }

func (b *timedBatch) DecideAll(ctxs []control.StepContext, out []cabin.Inputs) {
	start := time.Now()
	b.inner.DecideAll(ctxs, out)
	b.dur += time.Since(start)
	b.calls++
}

func (b *timedBatch) SyncLanes() {
	if ls, ok := b.inner.(control.LaneSyncer); ok {
		ls.SyncLanes()
	}
}

// fabricTrace is what the timing transport saw of one worker's
// protocol calls.
type fabricTrace struct {
	leases, completes           int
	leaseMs, completeMs, unitMs []float64
	completeBytes               int64
	pollWait, stitch            time.Duration
	jobs                        int
	duplicates, expired         float64

	granted  time.Time // when the current unit's lease was granted
	waitFrom time.Time // when a lease reply asked the worker to wait
}

// timedTransport is the fabric worker's HTTP transport. In a traced run
// it times and byte-counts every protocol call; in a set-up run it
// stops the worker at its first lease request, the moment the first job
// would be dispatched.
type timedTransport struct {
	inner   http.RoundTripper
	t       *tracer
	parent  int
	atLease func()
}

var errSetupDone = errors.New("perfbench: set-up reached the first lease")

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	if tt.atLease != nil && path == "/lease" {
		if req.Body != nil {
			req.Body.Close()
		}
		tt.atLease()
		return nil, errSetupDone
	}
	if tt.t == nil {
		return tt.inner.RoundTrip(req)
	}
	start := time.Now()
	t := tt.t
	if path == "/lease" {
		t.mu.Lock()
		if !t.fab.waitFrom.IsZero() {
			t.fab.pollWait += start.Sub(t.fab.waitFrom)
			t.fab.waitFrom = time.Time{}
		}
		t.mu.Unlock()
	}
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	dur := time.Since(start)
	t.add(tt.parent, path, "fabric", start, dur, 0)

	t.mu.Lock()
	defer t.mu.Unlock()
	f := &t.fab
	switch path {
	case "/heartbeat":
		// Heartbeats overlap job execution on their own goroutine, so
		// they are not fabric self time.
		return resp, nil
	case "/lease":
		f.leases++
		f.leaseMs = append(f.leaseMs, ms(dur))
		var rep fabric.LeaseReply
		if json.Unmarshal(body, &rep) == nil {
			switch {
			case rep.Lease != 0:
				f.granted = time.Now()
			case !rep.Done:
				f.waitFrom = time.Now()
			}
		}
	case "/complete":
		f.completes++
		f.completeMs = append(f.completeMs, ms(dur))
		f.completeBytes += req.ContentLength
		if !f.granted.IsZero() {
			f.unitMs = append(f.unitMs, ms(start.Sub(f.granted)))
			f.granted = time.Time{}
		}
	}
	t.self["fabric"] += dur
	return resp, nil
}
