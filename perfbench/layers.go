package main

import (
	"time"
)

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"core", "control", "sim", "fabric"}

// layerMetrics fills the per-layer metrics from the untraced phase
// (un), the traced phase (tr) and the tracer. Counts and times are per
// traced unit, so runs with different unit counts compare. A layer a
// workload leaves idle reports 0.
func layerMetrics(m map[string]metric, b *bench, un, tr *phase, t *tracer, expands []float64) {
	units := float64(len(tr.walls))
	workers := float64(b.workers)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// runner: job times come from the untraced runner calls, or from
	// the traced ones when the untraced unit ran inside a harness.
	rp := un
	if rp.pool == 0 {
		rp = tr
	}
	put("runner.expand_s", median(expands), "s")
	put("runner.pool_busy_frac", ratio(rp.busy.Seconds(), rp.pool.Seconds()*workers), "1")
	for _, f := range families {
		put("runner.job_ms_p50."+f, percentile(rp.jobMs[f], 50), "ms")
		put("runner.job_ms_max."+f, percentile(rp.jobMs[f], 100), "ms")
	}

	// sim and control: replayed lockstep batches.
	plant := t.batchRun - t.decideAll
	put("sim.ns_per_lane_step", ratio(float64(plant.Nanoseconds()), float64(t.laneSteps)), "ns")
	put("sim.plant_s", plant.Seconds()/units, "s")
	put("control.ns_per_lane_decide", ratio(float64(t.decideAll.Nanoseconds()), float64(t.laneDecides)), "ns")

	// core, sqp, qp: every timed MPC-family decision.
	var decideMs []float64
	var total time.Duration
	var solves, sqpIters, qpIters, converged, budget int
	for _, c := range t.ctrls {
		if c.family != "mpc" && c.family != "thermal_mpc" {
			continue
		}
		for _, d := range c.decides {
			decideMs = append(decideMs, ms(d.dur))
			total += d.dur
			if !d.reported {
				continue
			}
			solves++
			sqpIters += d.sqp
			qpIters += d.qp
			switch d.status {
			case "converged":
				converged++
			case "budget-exceeded":
				budget++
			}
		}
	}
	decTail, decPct := tail(decideMs)
	put("core.decides", float64(len(decideMs))/units, "count")
	put("core.decide_ms_p50", percentile(decideMs, 50), "ms")
	put("core.decide_ms_tail", decTail, "ms")
	put("core.decide_ms_tail_pct", decPct, "percentile")
	put("core.decide_s_total", total.Seconds()/units, "s")
	put("sqp.iters_per_decide", ratio(float64(sqpIters), float64(solves)), "count")
	put("qp.iters_per_decide", ratio(float64(qpIters), float64(solves)), "count")
	put("core.ms_per_sqp_iter", ratio(ms(total), float64(sqpIters)), "ms")
	put("sqp.converged_frac", ratio(float64(converged), float64(solves)), "1")
	put("sqp.budget_exceeded", float64(budget)/units, "count")

	// fabric: the worker's protocol calls and the coordinator counters.
	f := &t.fab
	compTail, compPct := tail(f.completeMs)
	leaseTail, leasePct := tail(f.leaseMs)
	put("fabric.complete_bytes_per_job", ratio(float64(f.completeBytes), float64(f.jobs)), "B")
	put("fabric.completes", float64(f.completes)/units, "count")
	put("fabric.complete_ms_p50", percentile(f.completeMs, 50), "ms")
	put("fabric.complete_ms_tail", compTail, "ms")
	put("fabric.complete_ms_tail_pct", compPct, "percentile")
	put("fabric.leases", float64(f.leases)/units, "count")
	put("fabric.lease_ms_p50", percentile(f.leaseMs, 50), "ms")
	put("fabric.lease_ms_tail", leaseTail, "ms")
	put("fabric.lease_ms_tail_pct", leasePct, "percentile")
	put("fabric.unit_exec_ms_p50", percentile(f.unitMs, 50), "ms")
	put("fabric.poll_wait_s", f.pollWait.Seconds()/units, "s")
	put("fabric.stitch_s", f.stitch.Seconds()/units, "s")
	put("fabric.records_duplicate", f.duplicates/units, "count")
	put("fabric.leases_expired", f.expired/units, "count")

	// process: the untraced units.
	put("process.cpu_util", ratio(un.cpu.Seconds(), un.span.Seconds()*workers), "1")
	put("process.alloc_mb_per_scenario", ratio(float64(un.alloc)/(1<<20), float64(un.scenarios)), "MiB")
	put("process.gc_cycles", float64(un.gc)/float64(len(un.walls)), "count")

	// experiments: the harness calls of the untraced units.
	put("experiments.run_cycles_s", median(un.parts["experiments.run_cycles_s"]), "s")
	put("experiments.table1_s", median(un.parts["experiments.table1_s"]), "s")

	// trace: the traced wall against the untraced one, and how much of
	// the traced worker time the layers' self times account for.
	var self time.Duration
	for _, l := range selfLayers {
		self += t.self[l]
		put("trace.self_s."+l, t.self[l].Seconds()/units, "s")
	}
	put("trace.wall_s", median(tr.walls), "s")
	put("trace.overhead_s", median(tr.walls)-median(un.walls), "s")
	put("trace.coverage_frac", ratio(self.Seconds(), sum(tr.walls)*workers), "1")
}
