package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"evclimate/internal/core"
	"evclimate/internal/experiments"
	"evclimate/internal/runner"
)

// coldMPC runs the soaked thermal plant of the experiments' cold sweep
// on ECE15 under the cabin-only MPC and the thermal co-scheduling MPC.
type coldMPC struct {
	seed int64
}

// coldAmbients span [-18, 0] °C across the heat pump's -15 °C cutoff:
// -18 °C heats by PTC, where a thermal-MPC job costs over ten times
// what it costs above the cutoff. The ambients are fixed and the seed
// only sets the sweep's base seed. Solver cost is chaotic in the
// ambient — moving -18 °C by 0.05 °C moves one thermal-MPC job between
// 5.9 and 8.4 s — so seeded ambients made a run's time depend on its
// seed by about 30 %.
var coldAmbients = []float64{-18, -12, -6, 0}

// coldSpec is the workload's sweep, on the cold sweep's simulation
// template (experiments.ColdSpec's Base: default plant plus the battery
// thermal network, cabin and pack soaked at ambient).
func coldSpec(seed int64) (runner.Spec, error) {
	spec, err := experiments.ColdSpec(map[string]string{"seed": strconv.FormatInt(seed, 10), "max_s": "0"})
	if err != nil {
		return runner.Spec{}, err
	}
	spec.Cycles = []runner.CycleSpec{{Name: "ECE15"}}
	spec.Envs = nil
	for _, a := range coldAmbients {
		spec.Envs = append(spec.Envs, runner.Env{AmbientC: a})
	}
	// The thermal MPC comes first so the pool starts the -18 °C job, the
	// longest by far, at once. Behind the cabin-only MPC its start
	// waited on the other worker, and the run's length jumped by a
	// second whenever that job finished either side of its neighbours.
	spec.Controllers = []runner.ControllerSpec{
		runner.ThermalMPCSpec(core.DefaultConfig(), 5),
		runner.MPCSpec(core.DefaultConfig(), 5),
	}
	return spec, nil
}

func (w *coldMPC) setup(b *bench) (setup, expand time.Duration, err error) {
	start := time.Now()
	spec, err := coldSpec(w.seed)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	_, err = runner.Expand(spec)
	return time.Since(start), time.Since(t0), err
}

func (w *coldMPC) run(b *bench) (*unitRun, error) {
	spec, err := coldSpec(w.seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sw, err := runner.Run(context.Background(), spec, runner.Options{Workers: b.workers})
	if err != nil {
		return nil, err
	}
	return sweepUnit(sw, time.Since(start)), nil
}

func (w *coldMPC) traced(b *bench, t *tracer, root int) (*unitRun, error) {
	spec, err := coldSpec(w.seed)
	if err != nil {
		return nil, err
	}
	return tracedRun(b, t, root, spec)
}

// maxEnergyDefectJ is the thermal network's energy-ledger tolerance,
// the bound the sim package's own thermal tests use.
const maxEnergyDefectJ = 1e-3

func (w *coldMPC) checkJob(j *jobOut) string {
	if j.res != nil && !(math.Abs(j.res.ThermalEnergyDefectJ) <= maxEnergyDefectJ) {
		return fmt.Sprintf("thermal energy defect %g J exceeds %g J", j.res.ThermalEnergyDefectJ, maxEnergyDefectJ)
	}
	return ""
}

func (w *coldMPC) check(*bench, *unitRun) error { return nil }
