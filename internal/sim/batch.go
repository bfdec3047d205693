package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"evclimate/internal/battery"
	"evclimate/internal/bms"
	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/drivecycle"
	"evclimate/internal/faults"
	"evclimate/internal/telemetry"
	"evclimate/internal/thermal"
	"evclimate/internal/units"
)

// BatchRunner steps N independent vehicles in lockstep over
// structure-of-arrays plant state: one time loop, one batched RK4
// integration over the concatenated cabin states, and one batched
// controller decision per control step. It is the package's only step
// loop — Runner.RunWith runs as a one-lane batch — and each lane's
// trajectory is bit-for-bit independent of the batch it rides in: RK4
// on concatenated state is element-wise, the batched controller kernels
// are the scalar Decide kernels, and every per-lane expression keeps
// one evaluation order. Batching amortizes the time loop, keeps the
// lane states hot in cache, and allocates nothing per step.
//
// Lanes with a thermal network (Config.Thermal) carry their own pack
// state: the network steps once per control period, and the pack→cabin
// conduction enters that lane's cabin RHS with the pack temperature
// frozen over the period.
type BatchRunner struct {
	lanes    []*Runner
	n        int     // control steps, equal across lanes
	dt       float64 // ControlDt, equal across lanes
	subSteps int     // PlantSubSteps, equal across lanes
}

// NewBatch validates the lane configurations and builds a lockstep
// batch. Every lane gets its own Runner (so per-lane physics, drive
// cycles, targets, faults, thermal networks, and telemetry are free to
// differ), but the lanes must share a time grid: equal ControlDt,
// PlantSubSteps, and step count after defaulting.
func NewBatch(cfgs []Config) (*BatchRunner, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("sim: batch with no lanes")
	}
	br := &BatchRunner{lanes: make([]*Runner, len(cfgs))}
	validated := make(map[*drivecycle.Profile]bool, len(cfgs))
	for i, cfg := range cfgs {
		r, err := buildRunner(cfg, validated)
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		// Sweep grids vary environment and target over one cycle, so most
		// lanes drive the same speed trace with the same powertrain; the
		// traction power profile depends on nothing else, and computing it
		// once per motion group (instead of per lane) takes the dominant
		// per-lane setup cost off repeated batches.
		for j := 0; j < i; j++ {
			if sharesMotorBasis(br.lanes[j], r) {
				r.motor = br.lanes[j].motor
				break
			}
		}
		if r.motor == nil {
			r.motor = r.pt.PowerProfile(r.cfg.Profile)
		}
		n := r.stepCount()
		if n <= 0 {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, errProfileTooShort)
		}
		if i == 0 {
			br.n, br.dt, br.subSteps = n, r.cfg.ControlDt, r.cfg.PlantSubSteps
		} else if r.cfg.ControlDt != br.dt || r.cfg.PlantSubSteps != br.subSteps || n != br.n {
			return nil, fmt.Errorf("sim: batch lane %d time grid (dt=%v sub=%d steps=%d) differs from lane 0 (dt=%v sub=%d steps=%d)",
				i, r.cfg.ControlDt, r.cfg.PlantSubSteps, n, br.dt, br.subSteps, br.n)
		}
		br.lanes[i] = r
	}
	return br, nil
}

// stepCount returns the run's control-step count for the configuration,
// n = ceil(duration/dt).
func (r *Runner) stepCount() int {
	return int(math.Ceil(r.cfg.Profile.Duration() / r.cfg.ControlDt))
}

// sharesMotorBasis reports whether lane b's motor power profile is
// necessarily bit-identical to lane a's: equal powertrain parameters
// (pointer-equal efficiency map) and profiles with the same grid and the
// same motion fields per sample. PowerAt reads only speed, acceleration,
// slope, and wind, so the environment fields sweeps vary are free to
// differ.
func sharesMotorBasis(a, b *Runner) bool {
	if a.cfg.Powertrain != b.cfg.Powertrain {
		return false
	}
	pa, pb := a.cfg.Profile, b.cfg.Profile
	if pa == pb {
		return true
	}
	if pa.Dt != pb.Dt || len(pa.Samples) != len(pb.Samples) {
		return false
	}
	for i := range pa.Samples {
		sa, sb := &pa.Samples[i], &pb.Samples[i]
		if sa.Speed != sb.Speed || sa.Accel != sb.Accel ||
			sa.SlopePercent != sb.SlopePercent || sa.WindMs != sb.WindMs {
			return false
		}
	}
	return true
}

// Lanes returns the lane count.
func (br *BatchRunner) Lanes() int { return len(br.lanes) }

// Lane returns lane i's Runner.
func (br *BatchRunner) Lane(i int) *Runner { return br.lanes[i] }

// Steps returns the shared control-step count.
func (br *BatchRunner) Steps() int { return br.n }

// BatchRunOptions are the durability controls of one batched run. The
// zero value reproduces Run exactly.
type BatchRunOptions struct {
	// Context, when non-nil, is checked once per control step; a canceled
	// context aborts the whole batch (after flushing per-lane checkpoints
	// when OnCheckpoint is set).
	Context context.Context
	// CheckpointEvery, with OnCheckpoint, emits one checkpoint per lane
	// after every CheckpointEvery-th completed control step — the same
	// boundaries, contents, and JSON bytes a one-lane run of that lane
	// emits, so a lane checkpoint resumes Runner.RunWith and vice versa.
	CheckpointEvery int
	// OnCheckpoint receives lane checkpoints in lane order; a non-nil
	// error aborts the run.
	OnCheckpoint func(lane int, ck *Checkpoint) error
	// Resume, when non-nil, must hold one checkpoint per lane, all at the
	// same step; the batch resumes from that boundary bit-exactly.
	Resume []*Checkpoint
}

// rhsLane is one lane's slice of the batched plant right-hand side: the
// cabin parameters the derivative reads, the zero-order-held actuator
// inputs of the current control period, and the lane's environment. One
// 64-byte struct per lane keeps the integration inner loop to a single
// indexed load. prof is nil when the environment is constant over the
// profile (the sweep-grid common case), in which case ambC/solW hold the
// EnvSampler fast-path values. pack is nil unless the lane has a thermal
// network.
type rhsLane struct {
	ua, cc     float64 // shell UA (W/K) and capacitance (J/K)
	fcp, ts    float64 // ṁ·cp (W/K) and supply temp, rewritten every control step
	ambC, solW float64 // constant-environment fast path
	prof       *drivecycle.Profile
	pack       *packCoupling
}

// packCoupling is the pack→cabin conduction term of a thermal lane's
// cabin RHS, kbc·(Tb − T)/C, with the pack temperature Tb frozen over the
// control period (the network itself steps once per period).
type packCoupling struct {
	kbc float64 // pack↔cabin conductance UAPackCabinWK (W/K)
	tb  float64 // pack temperature, rewritten every control step
}

// newRHSLane builds a lane's RHS slot for the cabin parameters and
// profile, resolving the constant-environment fast path once.
func newRHSLane(p cabin.Params, prof *drivecycle.Profile) rhsLane {
	l := rhsLane{ua: p.ShellUAWK, cc: p.ThermalCapacitanceJK}
	if ambC, solW, ok := drivecycle.NewEnvSampler(prof).ConstantEnv(); ok {
		l.ambC, l.solW = ambC, solW
	} else {
		l.prof = prof
	}
	return l
}

// integrateLanes advances the concatenated cabin states from t0 to t1
// with fixed substep dt: classical RK4 with the cabin RHS inlined, each
// stage's derivative evaluation fused with the state combination that
// feeds the next stage. The per-lane arithmetic — the stage formulas,
// the shortened last step, and the post-step non-finite check — is
// ode.Integrate with ode.RK4 on that lane alone (RK4 on concatenated
// state is element-wise). k1/k2/k3/tmp are caller-owned workspace of
// lane length.
//
// Each stage repeats the derivative body instead of calling a helper:
// cabin.Model.CabinDerivative over one rhsLane — the same expression
// tree ((solar + UA·(amb−T)) + (ṁ·cp)·(Ts−T)) / C in the same
// association, so every intermediate rounds identically to the model's
// own method; fcp carries the ṁ·cp product, which that expression also
// forms first. A thermal lane then adds its pack coupling,
// kbc·(Tb−T)/C. (A shared helper exceeds the inlining budget because of
// the varying-environment EnvAt call, turning the innermost loops into
// four function calls per lane per substep.)
func integrateLanes(rhs []rhsLane, x, k1, k2, k3, tmp []float64, t0, t1, dt float64) error {
	x = x[:len(rhs)]
	k1 = k1[:len(rhs)]
	k2 = k2[:len(rhs)]
	k3 = k3[:len(rhs)]
	tmp = tmp[:len(rhs)]
	t := t0
	for t < t1 {
		h := dt
		if t+h > t1 {
			h = t1 - t
		}
		if h <= 0 {
			break
		}
		th := t + h/2
		for i := range rhs {
			l := &rhs[i]
			amb, sol := l.ambC, l.solW
			if l.prof != nil {
				amb, sol = l.prof.EnvAt(t)
			}
			xi := x[i]
			q := sol + l.ua*(amb-xi)
			d := (q + l.fcp*(l.ts-xi)) / l.cc
			if pc := l.pack; pc != nil {
				d += pc.kbc * (pc.tb - xi) / l.cc
			}
			k1[i] = d
			tmp[i] = xi + h/2*d
		}
		for i := range rhs {
			l := &rhs[i]
			amb, sol := l.ambC, l.solW
			if l.prof != nil {
				amb, sol = l.prof.EnvAt(th)
			}
			xi := tmp[i]
			q := sol + l.ua*(amb-xi)
			d := (q + l.fcp*(l.ts-xi)) / l.cc
			if pc := l.pack; pc != nil {
				d += pc.kbc * (pc.tb - xi) / l.cc
			}
			k2[i] = d
			tmp[i] = x[i] + h/2*d
		}
		for i := range rhs {
			l := &rhs[i]
			amb, sol := l.ambC, l.solW
			if l.prof != nil {
				amb, sol = l.prof.EnvAt(th)
			}
			xi := tmp[i]
			q := sol + l.ua*(amb-xi)
			d := (q + l.fcp*(l.ts-xi)) / l.cc
			if pc := l.pack; pc != nil {
				d += pc.kbc * (pc.tb - xi) / l.cc
			}
			k3[i] = d
			tmp[i] = x[i] + h*d
		}
		for i := range rhs {
			l := &rhs[i]
			amb, sol := l.ambC, l.solW
			if l.prof != nil {
				amb, sol = l.prof.EnvAt(t + h)
			}
			xi := tmp[i]
			q := sol + l.ua*(amb-xi)
			d := (q + l.fcp*(l.ts-xi)) / l.cc
			if pc := l.pack; pc != nil {
				d += pc.kbc * (pc.tb - xi) / l.cc
			}
			x[i] = x[i] + h/6*(k1[i]+2*k2[i]+2*k3[i]+d)
		}
		t += h
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ode: non-finite state at t=%v (lane %d)", t, i)
			}
		}
	}
	return nil
}

// batchLane is one lane's mutable run state — the BMS, fault injector,
// thermal network, and metric accumulators a checkpoint captures — plus
// the step scratch the fused loop's passes hand each other.
type batchLane struct {
	r   *Runner
	b   *bms.BMS
	inj *faults.Injector
	res *Result

	hvacJ, motorJ, totalJ              float64
	comfortViol, comfortCount, trackSq float64

	// Thermal-network plant state and accumulators (nil/zero when the
	// lane has no thermal network); pack is the coupling term the lane's
	// rhsLane points at.
	th                *thermal.State
	pack              packCoupling
	cal               battery.CalendarParams
	calPct            float64
	hpSteps, ptcSteps int
	copSum            float64

	telOn      bool
	tel        telemetry.Sink
	telSteps   *telemetry.Counter
	telLatency *telemetry.Histogram
	telPack    *telemetry.Gauge
	telCOP     *telemetry.Gauge
	telHPSteps *telemetry.Counter
	telPTC     *telemetry.Counter
	solver     control.SolveReporter
	ladder     control.LadderReporter

	// Per-step scratch written by the pre-integration passes and read by
	// the post-integration pass. prevTz is the pre-step cabin
	// temperature, saved because the batched integration updates the SoA
	// state in place. heaterElecW is the heater's electrical draw — the
	// heat pump's (or PTC's) conversion of the delivered heat on thermal
	// lanes, pw.HeaterW otherwise; hpEff/hpPTC are that conversion.
	amb, sol, pe, socBefore float64
	prevTz                  float64
	in                      cabin.Inputs
	pw                      cabin.Powers
	heaterElecW, hvacW      float64
	hpEff                   float64
	hpPTC                   bool
}

// Run simulates every lane to completion under the batch controller and
// returns one Result per lane. The controller is Reset before the run.
func (br *BatchRunner) Run(bc control.BatchController) ([]*Result, error) {
	return br.RunWith(bc, BatchRunOptions{})
}

// RunWith simulates the lanes in lockstep with durability controls: each
// lane's Result, trace, checkpoints, and telemetry are bit-identical to
// a one-lane run of the same configuration and controller.
func (br *BatchRunner) RunWith(bc control.BatchController, opts BatchRunOptions) ([]*Result, error) {
	nl := len(br.lanes)
	if bc.Lanes() != nl {
		return nil, fmt.Errorf("sim: batch controller has %d lanes, runner has %d", bc.Lanes(), nl)
	}
	bc.Reset()
	// Write SoA controller state back into the lane controllers on every
	// exit, so Lane(i) reflects the run even when it aborts.
	if ls, ok := bc.(control.LaneSyncer); ok {
		defer ls.SyncLanes()
	}

	lanes := make([]batchLane, nl)
	// The SoA state, the fused RK4's workspace (see integrateLanes), and
	// the per-step context/decision arrays.
	ws := make([]float64, 5*nl)
	x, k1, k2, k3, tmp := ws[:nl], ws[nl:2*nl], ws[2*nl:3*nl], ws[3*nl:4*nl], ws[4*nl:]
	ctxs := make([]control.StepContext, nl)
	decs := make([]cabin.Inputs, nl)
	// SoA plant state for the fused RHS: the cabin derivative reads only
	// these per-lane scalars, so the integration inner loop touches one
	// contiguous array instead of chasing lane structs.
	rhs := make([]rhsLane, nl)
	for i := range lanes {
		ln := &lanes[i]
		r := br.lanes[i]
		cfg := r.cfg
		ln.r = r
		b, err := bms.New(cfg.BMS)
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		ln.b = b
		x[i] = cfg.InitialCabinC
		if cfg.UseAmbientStart {
			x[i] = cfg.Profile.Samples[0].AmbientC
		}
		ln.res = &Result{Controller: bc.Lane(i).Name()}
		// The fault injector sits between the plant and the controller:
		// it corrupts what the controller observes, never what the plant
		// does.
		if !cfg.Faults.Empty() {
			ln.inj = cfg.Faults.New(cfg.FaultSeed)
		}
		rhs[i] = newRHSLane(r.hvac.Params(), cfg.Profile)
		if cfg.Thermal != nil {
			th, err := thermal.NewState(*cfg.Thermal, cfg.Profile.Samples[0].AmbientC)
			if err != nil {
				return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
			}
			ln.th = th
			ln.cal = battery.DefaultCalendarParams()
			ln.pack.kbc = cfg.Thermal.Network.UAPackCabinWK
			rhs[i].pack = &ln.pack
		}
		// Telemetry is resolved once; when the sink is inactive the loop
		// pays only a boolean test per step.
		ln.tel = cfg.Telemetry
		ln.telOn = ln.tel != nil && ln.tel.Active()
		if ln.telOn {
			ln.telSteps = ln.tel.Counter("sim_steps_total")
			ln.telLatency = ln.tel.Histogram("sim_step_latency_seconds", telemetry.LatencyBuckets)
			if ln.th != nil {
				ln.telPack = ln.tel.Gauge("sim_pack_temp_c")
				ln.telCOP = ln.tel.Gauge("sim_heatpump_cop")
				ln.telHPSteps = ln.tel.Counter("sim_heatpump_steps_total")
				ln.telPTC = ln.tel.Counter("sim_ptc_steps_total")
			}
			ln.solver, _ = bc.Lane(i).(control.SolveReporter)
			ln.ladder, _ = bc.Lane(i).(control.LadderReporter)
			// Late-bind the run's sink into the controller so solver and
			// ladder metrics land under this run's labels even when the
			// controller came from a zero-argument sweep constructor.
			if tb, ok := bc.Lane(i).(control.TelemetryBinder); ok {
				tb.BindTelemetry(ln.tel)
			}
		}
	}

	k := 0 // the shared step index; lanes advance in lockstep
	if opts.Resume != nil {
		var err error
		k, err = br.restore(bc, lanes, x, opts.Resume)
		if err != nil {
			return nil, err
		}
	}

	// Preallocate every lane's trace and SoC trace to the known step
	// count (after any resume has restored its shorter prefix) so the
	// per-step appends never regrow mid-run.
	for i := range lanes {
		growTrace(&lanes[i].res.Trace, br.n, lanes[i].th != nil)
		lanes[i].b.Grow(br.n)
	}

	sub := br.dt / float64(br.subSteps)
	anyTel := false
	for i := range lanes {
		if lanes[i].telOn {
			anyTel = true
		}
	}

	for k < br.n {
		t := float64(k) * br.dt
		if opts.Context != nil {
			if cerr := opts.Context.Err(); cerr != nil {
				// Graceful drain: flush one checkpoint per lane so the
				// caller can resume the whole batch from this boundary;
				// the context error wins over any checkpoint-sink failure.
				if opts.OnCheckpoint != nil {
					for i := range lanes {
						if ck, snapErr := br.laneCheckpoint(bc, &lanes[i], i, k, x[i]); snapErr == nil {
							_ = opts.OnCheckpoint(i, ck)
						}
					}
				}
				return nil, fmt.Errorf("sim: run aborted at step %d/%d: %w", k, br.n, cerr)
			}
		}

		// Pass 1: observe — per lane, sample the environment, motor
		// power, SoC, and pack temperature, and build the (possibly
		// fault-corrupted) controller context.
		for i := range lanes {
			ln := &lanes[i]
			cfg := &ln.r.cfg
			if rl := &rhs[i]; rl.prof != nil {
				ln.amb, ln.sol = rl.prof.EnvAt(t)
			} else {
				ln.amb, ln.sol = rl.ambC, rl.solW
			}
			ln.pe = ln.r.MotorPower(t)
			ln.socBefore = ln.b.SoC()
			// Field-wise writes instead of a composite literal: StepContext
			// is large enough that assigning a literal copies the whole
			// struct per lane per step. Every field is (re)written — the
			// fault injector may have corrupted any of them last step.
			c := &ctxs[i]
			c.Time = t
			c.Dt = cfg.ControlDt
			c.CabinTempC = x[i]
			c.OutsideC = ln.amb
			c.SolarW = ln.sol
			c.MotorPowerW = ln.pe
			c.SoC = ln.socBefore
			c.TargetC = cfg.TargetC
			c.ComfortLowC = cfg.TargetC - cfg.ComfortBandC
			c.ComfortHighC = cfg.TargetC + cfg.ComfortBandC
			c.SolverIterBudget = 0
			if ln.th != nil {
				c.PackTempC = ln.th.PackC()
				c.PackThermal = true
			} else {
				c.PackTempC = 0
				c.PackThermal = false
			}
			if cfg.ForecastSteps > 0 {
				c.Forecast = ln.r.forecast(t, cfg.ForecastSteps)
			} else {
				c.Forecast = control.Forecast{}
			}
			if ln.inj != nil {
				ln.inj.Apply(k, c)
			}
		}

		// Pass 2: decide — one batched controller step, then per-lane
		// actuator clamping and power accounting. Controller latency is
		// wall-clock (non-deterministic, excluded from deterministic
		// telemetry comparisons); the batch attributes an equal share to
		// each lane.
		var stepStart time.Time
		if anyTel {
			stepStart = time.Now()
		}
		bc.DecideAll(ctxs, decs)
		for i := range lanes {
			ln := &lanes[i]
			ln.prevTz = x[i] // integration below overwrites x in place
			ln.in = decs[i]
			mix := ln.r.hvac.ClampForEnvironmentInPlace(&ln.in, ln.amb, x[i])
			// Zero-order-held RHS inputs for this control period, in the
			// cabin derivative's association: ṁ·cp first, then ·(Ts−T).
			rl := &rhs[i]
			rl.fcp = ln.in.AirFlowKgS * ln.r.cfg.Cabin.AirCpJKgK
			rl.ts = ln.in.SupplyTempC
			ln.pw = ln.r.hvac.PowersFor(ln.in, mix)
			// Cabin heating runs through the heat pump on thermal lanes:
			// the plant's delivered heat pw.HeaterW·EtaHeat is unchanged,
			// only the electrical conversion follows the COP at the
			// current ambient (or the PTC efficiency below the cutoff).
			ln.heaterElecW = ln.pw.HeaterW
			ln.hpEff, ln.hpPTC = 0, false
			if ln.th != nil {
				if ln.pw.HeaterW > 0 {
					ln.hpEff, ln.hpPTC = ln.th.Heating(ln.amb)
					ln.heaterElecW = ln.pw.HeaterW * ln.r.cfg.Cabin.EtaHeat / ln.hpEff
				}
				ln.pack.tb = ln.th.PackC()
			}
			ln.hvacW = ln.pw.Total() - ln.pw.HeaterW + ln.heaterElecW
		}
		var stepLatency time.Duration
		if anyTel {
			stepLatency = time.Since(stepStart) / time.Duration(nl)
		}

		// Pass 3: integrate — one batched RK4 sweep over the concatenated
		// cabin states with the lanes' zero-order-held inputs.
		if err := integrateLanes(rhs, x, k1, k2, k3, tmp, t, t+br.dt, sub); err != nil {
			return nil, fmt.Errorf("sim: plant integration failed at t=%v: %w", t, err)
		}

		// Pass 4: account — per lane, thermal network and battery step,
		// calendar aging, telemetry, trace, and metric accumulators. The
		// pre-step cabin temperature feeds the network, the trace, and the
		// comfort statistics; the integrated state lands in ctxs[i]
		// next iteration.
		for i := range lanes {
			ln := &lanes[i]
			cfg := &ln.r.cfg
			total := ln.pe + ln.hvacW + cfg.Powertrain.AccessoryW
			th := ln.th
			if th != nil {
				// Pack Joule self-heating at the pre-branch current feeds
				// the thermal network and drains the battery; the (clamped)
				// battery heater/chiller electrical draw adds on top.
				iPack := total / cfg.BMS.Pack.NominalVoltageV
				jouleW := iPack * iPack * th.PackResistanceOhm()
				fl := th.Step(ln.prevTz, ln.amb, jouleW, ln.in.BattHeatW, ln.in.BattChillW, cfg.ControlDt)
				total += fl.HeaterElecW + fl.ChillerElecW + jouleW
			}
			_, soc := ln.b.Step(total, cfg.ControlDt)
			if th != nil {
				// Calendar aging accrues continuously at the pack
				// temperature and the storage SoC, with the sqrt(t) kernel
				// evaluated at the pack's running age.
				age := ln.cal
				age.AgeDays += t / units.SecondsPerDay
				ln.calPct += age.LossPercent(th.PackC(), soc, cfg.ControlDt)
				if ln.pw.HeaterW > 0 {
					if ln.hpPTC {
						ln.ptcSteps++
					} else {
						ln.hpSteps++
						ln.copSum += ln.hpEff
					}
				}
			}

			if ln.telOn {
				ln.telSteps.Inc()
				ln.telLatency.Observe(stepLatency.Seconds())
				span := telemetry.StepSpan{
					Step:         k,
					TimeS:        t,
					CabinC:       ln.prevTz,
					OutsideC:     ln.amb,
					SoCPct:       soc,
					SoCDeltaPct:  soc - ln.socBefore,
					HVACW:        ln.hvacW,
					SupplyC:      ln.in.SupplyTempC,
					CoilC:        ln.in.CoilTempC,
					Recirc:       ln.in.Recirc,
					AirFlowKgS:   ln.in.AirFlowKgS,
					Rung:         -1,
					FaultsActive: ln.inj.ActiveAt(t),
					LatencyNs:    stepLatency.Nanoseconds(),
				}
				if ln.solver != nil {
					si := ln.solver.LastSolve()
					span.SolverIters = si.Iterations
					span.QPIters = si.QPIterations
					span.SolverStatus = si.Status
				}
				if ln.ladder != nil {
					span.Rung = ln.ladder.Level()
					span.Stage = ln.ladder.ActiveStage()
				}
				if th != nil {
					span.PackC = th.PackC()
					span.BattHeatW = ln.in.BattHeatW
					span.BattChillW = ln.in.BattChillW
					ln.telPack.Set(th.PackC())
					if ln.pw.HeaterW > 0 {
						span.COP = ln.hpEff
						ln.telCOP.Set(ln.hpEff)
						if ln.hpPTC {
							ln.telPTC.Inc()
						} else {
							ln.telHPSteps.Inc()
						}
					}
				}
				ln.tel.Step(&span)
			}

			tr := &ln.res.Trace
			tr.Time = append(tr.Time, t)
			tr.CabinC = append(tr.CabinC, ln.prevTz)
			tr.OutsideC = append(tr.OutsideC, ln.amb)
			tr.MotorW = append(tr.MotorW, ln.pe)
			tr.HeaterW = append(tr.HeaterW, ln.heaterElecW)
			tr.CoolerW = append(tr.CoolerW, ln.pw.CoolerW)
			tr.FanW = append(tr.FanW, ln.pw.FanW)
			tr.HVACW = append(tr.HVACW, ln.hvacW)
			tr.TotalW = append(tr.TotalW, total)
			tr.SoC = append(tr.SoC, soc)
			if th != nil {
				tr.PackC = append(tr.PackC, th.PackC())
			}
			tr.Inputs = append(tr.Inputs, ln.in)

			ln.hvacJ += ln.hvacW * cfg.ControlDt
			ln.motorJ += ln.pe * cfg.ControlDt
			ln.totalJ += total * cfg.ControlDt

			// Comfort statistics use the true pre-step temperature against
			// the (possibly fault-widened) comfort band the controller saw.
			if t >= cfg.SettleS {
				ln.comfortCount++
				e := ln.prevTz - cfg.TargetC
				ln.trackSq += e * e
				if ln.prevTz < ctxs[i].ComfortLowC || ln.prevTz > ctxs[i].ComfortHighC {
					ln.comfortViol++
				}
			}
		}

		k++

		if opts.CheckpointEvery > 0 && opts.OnCheckpoint != nil && k < br.n && k%opts.CheckpointEvery == 0 {
			for i := range lanes {
				ck, err := br.laneCheckpoint(bc, &lanes[i], i, k, x[i])
				if err != nil {
					return nil, fmt.Errorf("sim: checkpoint at step %d: %w", k, err)
				}
				if err := opts.OnCheckpoint(i, ck); err != nil {
					return nil, fmt.Errorf("sim: checkpoint at step %d: %w", k, err)
				}
			}
		}
	}

	out := make([]*Result, nl)
	for i := range lanes {
		ln := &lanes[i]
		cfg := &ln.r.cfg
		res := ln.res
		simT := float64(br.n) * cfg.ControlDt
		res.AvgHVACW = ln.hvacJ / simT
		res.AvgMotorW = ln.motorJ / simT
		res.AvgTotalW = ln.totalJ / simT
		res.HVACEnergyKWh = ln.hvacJ / 3.6e6
		res.FinalSoC = ln.b.SoC()
		res.Events = ln.b.Events()
		dev, avg, err := ln.b.CycleStats()
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		res.SoCDev, res.SoCAvg = dev, avg
		dsoh, err := ln.b.DeltaSoH()
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		res.DeltaSoH = dsoh
		if th := ln.th; th != nil {
			// Cold (or hot) cycling accelerates cycle fade: scale the cycle
			// term by the U-shaped pack-temperature stress factor, and
			// report the calendar (storage) term alongside.
			res.DeltaSoH = dsoh * battery.CycleStressFactor(th.MeanPackC())
			res.CalendarDeltaSoH = ln.calPct
			res.PackMeanC = th.MeanPackC()
			res.PackMinC = th.MinPackC()
			res.PackFinalC = th.PackC()
			res.ThermalEnergyDefectJ = th.EnergyDefectJ()
			if heatSteps := ln.hpSteps + ln.ptcSteps; heatSteps > 0 {
				res.HeatPumpFrac = float64(ln.hpSteps) / float64(heatSteps)
			}
			if ln.hpSteps > 0 {
				res.AvgCOP = ln.copSum / float64(ln.hpSteps)
			}
		}
		if ln.comfortCount > 0 {
			res.ComfortViolationFrac = ln.comfortViol / ln.comfortCount
			res.RMSTrackingErrC = math.Sqrt(ln.trackSq / ln.comfortCount)
		}
		out[i] = res
	}
	return out, nil
}

// laneCheckpoint captures lane i's complete state at the step boundary k:
// the cabin temperature tz, the metric accumulators, the trace so far,
// and the BMS, fault-injector, thermal-network, and controller state.
// The checkpoint shares nothing with the run.
func (br *BatchRunner) laneCheckpoint(bc control.BatchController, ln *batchLane, i, k int, tz float64) (*Checkpoint, error) {
	snap, ok := bc.(control.BatchSnapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: controller %q does not support state snapshots", bc.Lane(i).Name())
	}
	ctrlState, err := snap.LaneSnapshot(i)
	if err != nil {
		return nil, fmt.Errorf("sim: controller snapshot: %w", err)
	}
	ck := &Checkpoint{
		Version:      CheckpointVersion,
		Controller:   bc.Lane(i).Name(),
		Step:         k,
		CabinC:       tz,
		HVACJ:        ln.hvacJ,
		MotorJ:       ln.motorJ,
		TotalJ:       ln.totalJ,
		ComfortViol:  ln.comfortViol,
		ComfortCount: ln.comfortCount,
		TrackSq:      ln.trackSq,
		Trace:        copyTrace(&ln.res.Trace),
		BMS:          ln.b.State(),
		CtrlState:    ctrlState,
	}
	if ln.inj != nil {
		fs := ln.inj.State()
		ck.Faults = &fs
	}
	if ln.th != nil {
		ck.Thermal = &ThermalCheckpoint{
			State:       ln.th.Snapshot(),
			CalendarPct: ln.calPct,
			HPSteps:     ln.hpSteps,
			PTCSteps:    ln.ptcSteps,
			COPSum:      ln.copSum,
		}
	}
	return ck, nil
}

// restore validates one checkpoint per lane (all at the same step)
// against the run being started, loads them into the batch state, and
// returns the resumed step index. The controller has already been Reset
// and had its telemetry bound.
func (br *BatchRunner) restore(bc control.BatchController, lanes []batchLane, x []float64, cks []*Checkpoint) (int, error) {
	if len(cks) != len(lanes) {
		return 0, fmt.Errorf("sim: batch resume has %d checkpoints for %d lanes", len(cks), len(lanes))
	}
	snap, ok := bc.(control.BatchSnapshotter)
	if !ok {
		return 0, fmt.Errorf("sim: controller %q does not support state snapshots", bc.Lane(0).Name())
	}
	step := -1
	for i, ck := range cks {
		ln := &lanes[i]
		if ck == nil {
			return 0, fmt.Errorf("sim: batch resume lane %d: nil checkpoint", i)
		}
		if ck.Version != CheckpointVersion {
			return 0, fmt.Errorf("sim: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
		}
		if ck.Controller != bc.Lane(i).Name() {
			return 0, fmt.Errorf("sim: checkpoint from controller %q cannot resume %q", ck.Controller, bc.Lane(i).Name())
		}
		if ck.Step < 0 || ck.Step > br.n {
			return 0, fmt.Errorf("sim: checkpoint step %d outside run of %d steps", ck.Step, br.n)
		}
		if step < 0 {
			step = ck.Step
		} else if ck.Step != step {
			return 0, fmt.Errorf("sim: batch resume lane %d at step %d, lane 0 at step %d; lanes must share a boundary", i, ck.Step, step)
		}
		if len(ck.Trace.Time) != ck.Step {
			return 0, fmt.Errorf("sim: checkpoint trace has %d steps, expected %d", len(ck.Trace.Time), ck.Step)
		}
		if (ck.Faults != nil) != (ln.inj != nil) {
			return 0, errors.New("sim: checkpoint fault state does not match the run's fault configuration")
		}
		if (ck.Thermal != nil) != (ln.th != nil) {
			return 0, errors.New("sim: checkpoint thermal state does not match the run's thermal configuration")
		}
		if len(ck.CtrlState) == 0 {
			return 0, errors.New("sim: checkpoint is missing the controller state")
		}
		if err := snap.RestoreLane(i, ck.CtrlState); err != nil {
			return 0, fmt.Errorf("sim: controller restore: %w", err)
		}
		if err := ln.b.SetState(ck.BMS); err != nil {
			return 0, err
		}
		if ln.inj != nil {
			ln.inj.SetState(*ck.Faults)
		}
		if ln.th != nil {
			if err := ln.th.Restore(ck.Thermal.State); err != nil {
				return 0, err
			}
			ln.calPct = ck.Thermal.CalendarPct
			ln.hpSteps, ln.ptcSteps = ck.Thermal.HPSteps, ck.Thermal.PTCSteps
			ln.copSum = ck.Thermal.COPSum
		}
		ln.res.Trace = copyTrace(&ck.Trace)
		x[i] = ck.CabinC
		ln.hvacJ, ln.motorJ, ln.totalJ = ck.HVACJ, ck.MotorJ, ck.TotalJ
		ln.comfortViol, ln.comfortCount, ln.trackSq = ck.ComfortViol, ck.ComfortCount, ck.TrackSq
	}
	return step, nil
}
