package sim

import (
	"math"
	"strings"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/drivecycle"
	"evclimate/internal/ode"
	"evclimate/internal/thermal"
)

// oracleLane is one lane of the integrator oracle: a profile, the
// zero-order-held inputs, the initial cabin temperature, and — for
// thermal lanes — the frozen pack temperature of the coupling term.
type oracleLane struct {
	prof    *drivecycle.Profile
	in      cabin.Inputs
	x0      float64
	thermal bool
	packC   float64
}

// TestIntegrateLanesMatchesRK4 pins the fused batched integrator against
// an independent oracle: per lane, integrateLanes lands on exactly the
// bits of ode.Integrate with ode.RK4 driving the cabin model's own
// CabinDerivative through a closure over an EnvSampler (plus the
// pack→cabin coupling term on thermal lanes) — for constant and
// interpolated environments, cooling and heating inputs, and spans whose
// last substep is shortened.
func TestIntegrateLanesMatchesRK4(t *testing.T) {
	m := hvacModel(t)
	p := m.Params()
	kbc := thermal.DefaultThermal().Network.UAPackCabinWK
	base := drivecycle.ECE15().Profile(1)
	hot := base.WithAmbient(35).WithSolar(400)
	wavy := base.WithAmbientFunc(func(tt float64) float64 { return 8 + 14*math.Sin(tt/9) }).WithSolar(150)
	cold := base.WithAmbient(-15)
	coldWavy := base.WithAmbientFunc(func(tt float64) float64 { return -10 + 5*math.Sin(tt/5) })
	cool := cabin.Inputs{SupplyTempC: 9, CoilTempC: 7, Recirc: 0.6, AirFlowKgS: 0.11}
	heat := cabin.Inputs{SupplyTempC: 45, CoilTempC: -12, Recirc: 0.3, AirFlowKgS: 0.07}
	lanes := []oracleLane{
		{prof: hot, in: cool, x0: 31},
		{prof: wavy, in: cool, x0: 22.5},
		{prof: cold, in: heat, x0: -15, thermal: true, packC: -18},
		{prof: coldWavy, in: heat, x0: -4, thermal: true, packC: 3},
		{prof: cold, in: heat, x0: -12},
	}
	for _, span := range []struct{ t0, t1, dt float64 }{
		{0, 1, 0.2},
		{37, 38, 0.3}, // 0.3 does not divide 1: the last substep is shortened
		{120, 125, 1},
		{14.5, 17, 0.7}, // interpolation between profile samples, shortened tail
	} {
		rhs := make([]rhsLane, len(lanes))
		packs := make([]packCoupling, len(lanes))
		x := make([]float64, len(lanes))
		for i, l := range lanes {
			rhs[i] = newRHSLane(p, l.prof)
			rhs[i].fcp = l.in.AirFlowKgS * p.AirCpJKgK
			rhs[i].ts = l.in.SupplyTempC
			if l.thermal {
				packs[i] = packCoupling{kbc: kbc, tb: l.packC}
				rhs[i].pack = &packs[i]
			}
			x[i] = l.x0
		}
		ws := make([]float64, 4*len(lanes))
		n := len(lanes)
		if err := integrateLanes(rhs, x, ws[:n], ws[n:2*n], ws[2*n:3*n], ws[3*n:], span.t0, span.t1, span.dt); err != nil {
			t.Fatal(err)
		}
		for i, l := range lanes {
			env := drivecycle.NewEnvSampler(l.prof)
			in, tb := l.in, l.packC
			sys := func(tt float64, xs, dxdt []float64) {
				amb, sol := env.At(tt)
				dxdt[0] = m.CabinDerivative(xs[0], in, amb, sol)
			}
			if l.thermal {
				mc := p.ThermalCapacitanceJK
				sys = func(tt float64, xs, dxdt []float64) {
					amb, sol := env.At(tt)
					dxdt[0] = m.CabinDerivative(xs[0], in, amb, sol) + kbc*(tb-xs[0])/mc
				}
			}
			want, err := ode.Integrate(sys, []float64{l.x0}, span.t0, span.t1, span.dt, &ode.RK4{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(x[i]) != math.Float64bits(want[0]) {
				t.Errorf("span %+v lane %d: integrateLanes %v != ode.Integrate %v (diff %g)",
					span, i, x[i], want[0], x[i]-want[0])
			}
		}
	}
}

// TestIntegrateLanesNonFiniteLane pins lane attribution: when one lane
// diverges, the error names it.
func TestIntegrateLanesNonFiniteLane(t *testing.T) {
	p := hvacModel(t).Params()
	prof := drivecycle.ECE15().Profile(1).WithAmbient(20)
	rhs := []rhsLane{newRHSLane(p, prof), newRHSLane(p, prof), newRHSLane(p, prof)}
	rhs[1].ts = math.Inf(1)
	rhs[1].fcp = 1
	x := []float64{20, 20, 20}
	ws := make([]float64, 12)
	err := integrateLanes(rhs, x, ws[0:3], ws[3:6], ws[6:9], ws[9:], 0, 1, 0.5)
	if err == nil || !strings.Contains(err.Error(), "lane 1") {
		t.Fatalf("want a non-finite error naming lane 1, got %v", err)
	}
}

// TestIntegrateLanesAllocFree pins that the fused integrator runs on the
// caller's workspace: a call allocates nothing.
func TestIntegrateLanesAllocFree(t *testing.T) {
	p := hvacModel(t).Params()
	prof := drivecycle.ECE15().Profile(1).WithAmbientFunc(func(tt float64) float64 { return 25 + math.Sin(tt) })
	rhs := make([]rhsLane, 16)
	for i := range rhs {
		rhs[i] = newRHSLane(p, prof)
	}
	x := make([]float64, 16)
	ws := make([]float64, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if err := integrateLanes(rhs, x, ws[0:16], ws[16:32], ws[32:48], ws[48:], 0, 1, 0.2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("integrateLanes allocated %v times per call, want 0", allocs)
	}
}
