package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"evclimate/internal/control"
	"evclimate/internal/drivecycle"
	"evclimate/internal/faults"
	"evclimate/internal/thermal"
)

// batchLaneConfigs builds n lane configurations over the named cycle
// that exercise the batch core's variation axes: different targets,
// constant and time-varying ambients, solar load, and fault-injected
// lanes. Lane i is deterministic in (cycle, i).
func batchLaneConfigs(t *testing.T, cycle string, n int) []Config {
	t.Helper()
	c, err := drivecycle.ByName(cycle)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Profile(1)
	cfgs := make([]Config, n)
	for i := 0; i < n; i++ {
		var prof *drivecycle.Profile
		switch i % 4 {
		case 0:
			prof = base.WithAmbient(35).WithSolar(400)
		case 1:
			prof = base.WithAmbient(5)
		case 2:
			// Time-varying ambient: the EnvSampler's interpolating path.
			phase := float64(i)
			prof = base.WithAmbientFunc(func(tt float64) float64 {
				return 20 + 12*math.Sin(tt/60+phase)
			}).WithSolar(250)
		default:
			prof = base.WithAmbient(28).WithSolar(150)
		}
		cfg := DefaultConfig(prof.Truncate(240))
		cfg.TargetC = 21 + float64(i%3)*2.5
		switch i % 5 {
		case 3:
			cfg.Faults = &faults.Spec{
				Name:   "stuck-cabin",
				Sensor: []faults.SensorFault{{Signal: faults.CabinTemp, Mode: faults.StuckAt, Value: 24, Window: faults.Window{StartS: 60, EndS: 150}}},
			}
			cfg.FaultSeed = int64(1000 + i)
		case 4:
			cfg.Faults = &faults.Spec{
				Name:   "noisy-soc",
				Sensor: []faults.SensorFault{{Signal: faults.SoC, Mode: faults.Noise, Value: 0.5, Window: faults.Window{StartS: 30, EndS: 200}}},
			}
			cfg.FaultSeed = int64(2000 + i)
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// batchControllers builds one controller per lane of the given kind;
// "mixed" alternates on/off and fuzzy lanes.
func batchControllers(t *testing.T, kind string, n int) []control.Controller {
	t.Helper()
	out := make([]control.Controller, n)
	for i := range out {
		k := kind
		if kind == "mixed" {
			k = []string{"onoff", "fuzzy"}[i%2]
		}
		out[i] = laneController(t, k)
	}
	return out
}

// TestBatchMatchesScalarBitExact is the lane-of-1 vs lane-of-N property
// pin: for on/off and fuzzy controllers across three drive cycles and
// batch sizes 1, 3, and 16 — with lanes varying target, ambient
// (constant and sinusoidal), solar, and fault injection — every lane of
// a batched run is bit-for-bit identical (full Result JSON, traces
// included) to a scalar Runner.Run of the same configuration (a one-lane
// batch), both reproduce the digest the retired scalar step loop
// recorded for that lane (resultPins), and the batched results satisfy
// the physical invariants. The mixed-controller case pins the
// ScalarBatch fallback path.
func TestBatchMatchesScalarBitExact(t *testing.T) {
	cycles := []string{"ECE15", "UDDS", "US06"}
	kinds := []string{"onoff", "fuzzy", "mixed"}
	sizes := []int{1, 3, 16}
	for _, cyc := range cycles {
		for _, kind := range kinds {
			for _, size := range sizes {
				if kind == "mixed" && (size != 3 || cyc != "ECE15") {
					continue // the fallback needs one pin, not the grid
				}
				t.Run(fmt.Sprintf("%s/%s/%d", cyc, kind, size), func(t *testing.T) {
					cfgs := batchLaneConfigs(t, cyc, size)

					br, err := NewBatch(cfgs)
					if err != nil {
						t.Fatal(err)
					}
					bres, err := br.Run(control.Batch(batchControllers(t, kind, size)))
					if err != nil {
						t.Fatal(err)
					}

					for i, cfg := range cfgs {
						ctrl := batchControllers(t, kind, size)[i]
						sres := runLaneOfOne(t, cfg, ctrl)
						want, _ := json.Marshal(sres)
						got, _ := json.Marshal(bres[i])
						if string(want) != string(got) {
							t.Errorf("lane %d: batch result diverges from scalar", i)
						}
						laneKind := "onoff"
						if _, ok := ctrl.(*control.Fuzzy); ok {
							laneKind = "fuzzy"
						}
						checkResultPin(t, fmt.Sprintf("%s/%s/%d", cyc, laneKind, i), bres[i])
						// Fault-corrupted lanes can legitimately violate the
						// conformance rules (a stuck sensor makes the fuzzy
						// controller heat a hot cabin); clean lanes must not.
						if cfg.Faults.Empty() {
							tol := DefaultTolerances()
							if cyc == "US06" {
								tol.EnergyClosureRel = 0.25
							}
							if err := CheckInvariants(cfg, bres[i], tol); err != nil {
								t.Errorf("lane %d: batch result violates invariants: %v", i, err)
							}
						}
					}
				})
			}
		}
	}
}

// TestBatchCheckpointResumeBitExact pins batch durability: checkpoints
// emitted at a batch boundary — a thermal lane's included — round-trip
// through JSON and resume (a) a fresh batch and (b) a fresh scalar
// Runner per lane, both reproducing the uninterrupted batch bit for bit
// and the digests the retired scalar step loop recorded. Scalar-emitted
// checkpoints conversely resume the batch, proving the lane-of-1 and
// lane-of-N formats are cross-compatible.
func TestBatchCheckpointResumeBitExact(t *testing.T) {
	const at = 97
	cfgs := checkpointLaneConfigs(t)
	size := len(cfgs)

	br, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	cks := make([]*Checkpoint, size)
	ref, err := br.RunWith(control.Batch(batchControllers(t, "fuzzy", size)), BatchRunOptions{
		CheckpointEvery: at,
		OnCheckpoint: func(lane int, ck *Checkpoint) error {
			if cks[lane] == nil {
				raw, err := json.Marshal(ck) // round-trip as checkpoint files do
				if err != nil {
					return err
				}
				cks[lane] = new(Checkpoint)
				return json.Unmarshal(raw, cks[lane])
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ck := range cks {
		if ck == nil || ck.Step != at {
			t.Fatalf("lane %d: missing checkpoint at step %d", i, at)
		}
		if (ck.Thermal != nil) != (cfgs[i].Thermal != nil) {
			t.Errorf("lane %d: checkpoint thermal state %v, lane thermal %v", i, ck.Thermal != nil, cfgs[i].Thermal != nil)
		}
	}
	refJSON := make([]string, size)
	for i := range ref {
		raw, _ := json.Marshal(ref[i])
		refJSON[i] = string(raw)
		checkResultPin(t, fmt.Sprintf("resume/fuzzy/%d", i), ref[i])
	}

	// (a) Batch resume on fresh runners and controllers.
	br2, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := br2.RunWith(control.Batch(batchControllers(t, "fuzzy", size)), BatchRunOptions{Resume: cks})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		raw, _ := json.Marshal(res[i])
		if string(raw) != refJSON[i] {
			t.Errorf("lane %d: batch resume diverges from uninterrupted batch", i)
		}
	}

	// (b) Each batch checkpoint resumes the scalar Runner bit-exactly.
	for i, cfg := range cfgs {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := r.RunWith(control.NewFuzzy(hvacModel(t)), RunOptions{Resume: cks[i]})
		if err != nil {
			t.Fatalf("lane %d: scalar resume from batch checkpoint: %v", i, err)
		}
		raw, _ := json.Marshal(sres)
		if string(raw) != refJSON[i] {
			t.Errorf("lane %d: scalar resume from batch checkpoint diverges", i)
		}
	}

	// (c) Scalar-emitted checkpoints resume the batch.
	scks := make([]*Checkpoint, size)
	for i, cfg := range cfgs {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunWith(control.NewFuzzy(hvacModel(t)), RunOptions{
			CheckpointEvery: at,
			OnCheckpoint: func(ck *Checkpoint) error {
				if scks[i] == nil {
					scks[i] = ck
				}
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	br3, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := br3.RunWith(control.Batch(batchControllers(t, "fuzzy", size)), BatchRunOptions{Resume: scks})
	if err != nil {
		t.Fatalf("batch resume from scalar checkpoints: %v", err)
	}
	for i := range res3 {
		raw, _ := json.Marshal(res3[i])
		if string(raw) != refJSON[i] {
			t.Errorf("lane %d: batch resume from scalar checkpoint diverges", i)
		}
	}
}

// TestBatchAbortFlushesCheckpoints pins the graceful-drain contract: a
// canceled context aborts the batch with one resumable checkpoint per
// lane, and resuming those checkpoints completes the run bit-exactly.
func TestBatchAbortFlushesCheckpoints(t *testing.T) {
	const size = 3
	cfgs := batchLaneConfigs(t, "ECE15", size)

	br, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := br.Run(control.Batch(batchControllers(t, "onoff", size)))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	br2, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var flushed []*Checkpoint
	steps := 0
	_, err = br2.RunWith(control.Batch(batchControllers(t, "onoff", size)), BatchRunOptions{
		Context:         ctx,
		CheckpointEvery: 50,
		OnCheckpoint: func(lane int, ck *Checkpoint) error {
			if ck.Step >= 100 {
				flushed = append(flushed, ck)
			}
			if lane == size-1 && ck.Step == 100 {
				steps = ck.Step
				cancel()
			}
			return nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("canceled batch returned %v, want abort error", err)
	}
	// The drain flushes one extra checkpoint set at the abort step.
	if len(flushed) != 2*size {
		t.Fatalf("flushed %d checkpoints, want %d", len(flushed), 2*size)
	}
	resume := flushed[size:]
	if resume[0].Step != steps {
		t.Fatalf("drain checkpoint at step %d, want %d", resume[0].Step, steps)
	}

	br3, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := br3.RunWith(control.Batch(batchControllers(t, "onoff", size)), BatchRunOptions{Resume: resume})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		want, _ := json.Marshal(ref[i])
		got, _ := json.Marshal(res[i])
		if string(want) != string(got) {
			t.Errorf("lane %d: resume after abort diverges from uninterrupted run", i)
		}
	}
}

// TestNewBatchValidation pins the grouping preconditions: invalid
// thermal networks, mismatched time grids, empty batches, and lane-count
// mismatches are rejected with diagnostics.
func TestNewBatchValidation(t *testing.T) {
	if _, err := NewBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	cfgs := batchLaneConfigs(t, "ECE15", 2)

	// A thermal lane joins a batch on the shared grid; its network
	// configuration is validated like any other lane parameter.
	th := cfgs[1]
	thc := thermal.DefaultThermal()
	th.Thermal = &thc
	if _, err := NewBatch([]Config{cfgs[0], th}); err != nil {
		t.Errorf("thermal lane rejected: %v", err)
	}
	bad := thc
	bad.PackFromAmbient = false
	bad.InitialPackC = math.NaN()
	th.Thermal = &bad
	if _, err := NewBatch([]Config{cfgs[0], th}); err == nil {
		t.Error("thermal lane with an invalid network accepted")
	}

	slow := cfgs[1]
	slow.ControlDt = 2
	if _, err := NewBatch([]Config{cfgs[0], slow}); err == nil {
		t.Error("mismatched ControlDt accepted")
	}

	short := cfgs[1]
	short.Profile = cfgs[1].Profile.Truncate(120)
	if _, err := NewBatch([]Config{cfgs[0], short}); err == nil {
		t.Error("mismatched step count accepted")
	}

	br, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.Run(control.Batch(batchControllers(t, "onoff", 3))); err == nil {
		t.Error("lane-count mismatch accepted")
	}
}

// TestRunTracePreallocated pins the trace-regrowth fix: after a run,
// every trace column's capacity equals the step count — the per-step
// appends never regrew the preallocated slices.
func TestRunTracePreallocated(t *testing.T) {
	cfg := DefaultConfig(hotProfile().Truncate(200))
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(control.NewOnOff(hvacModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Trace.Time)
	if n == 0 {
		t.Fatal("empty trace")
	}
	for name, c := range map[string]int{
		"Time":     cap(res.Trace.Time),
		"CabinC":   cap(res.Trace.CabinC),
		"OutsideC": cap(res.Trace.OutsideC),
		"MotorW":   cap(res.Trace.MotorW),
		"HeaterW":  cap(res.Trace.HeaterW),
		"CoolerW":  cap(res.Trace.CoolerW),
		"FanW":     cap(res.Trace.FanW),
		"HVACW":    cap(res.Trace.HVACW),
		"TotalW":   cap(res.Trace.TotalW),
		"SoC":      cap(res.Trace.SoC),
		"Inputs":   cap(res.Trace.Inputs),
	} {
		if c != n {
			t.Errorf("Trace.%s capacity %d != len %d: slice regrew or overallocated", name, c, n)
		}
	}
}

// TestRunAllocsBounded pins the allocation-free step loop: whole-run
// allocations stay O(1) (setup + result), not O(steps). Before the
// batched-core rework the 200-step loop allocated several slices and a
// closure per step (thousands per run).
func TestRunAllocsBounded(t *testing.T) {
	cfg := DefaultConfig(hotProfile().Truncate(200))
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := control.NewOnOff(hvacModel(t))
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := r.Run(ctrl); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("Run allocated %v objects for a 200-step profile; the step loop is allocating", allocs)
	}
}
