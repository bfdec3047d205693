package sim

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"evclimate/internal/control"
	"evclimate/internal/telemetry"
)

// This file pins the step loop's output to recorded bits. Every digest
// and checkpoint file below was produced by the scalar Runner.RunWith
// step loop before it was folded into the batch core; Runner.RunWith
// now runs a one-lane BatchRunner, and the suites that used to compare
// the two loops at run time compare lane-of-1 and lane-of-N runs against
// these recordings instead. Computed on linux/amd64 (no FMA fusion; see
// mpcTrajectoryHash). A mismatch means the engine's arithmetic or step
// order drifted: fix the engine, do not re-record.

// resultPins maps "<cycle>/<controller>/<lane>" to the FNV-1a digest
// (resultDigest) of that lane's Result. The cycle keys cover
// batchLaneConfigs' 16 lanes; "cold" covers coldLaneConfigs and "resume"
// checkpointLaneConfigs.
var resultPins = map[string]uint64{
	"ECE15/onoff/0":      0x8128be4c51c06951,
	"ECE15/onoff/1":      0xe49c12835df0c998,
	"ECE15/onoff/2":      0x73be9feb4b870c36,
	"ECE15/onoff/3":      0x092953d1a1bb5450,
	"ECE15/onoff/4":      0xe71b5334bbc5b7b6,
	"ECE15/onoff/5":      0x7f11f72ef47cbe90,
	"ECE15/onoff/6":      0xd5cb209f4b52eaf0,
	"ECE15/onoff/7":      0xac95bde428450658,
	"ECE15/onoff/8":      0x95181bea1a8dfa9e,
	"ECE15/onoff/9":      0x36b23e1ca16d409e,
	"ECE15/onoff/10":     0xb9ba64906df1b786,
	"ECE15/onoff/11":     0x1d7dc13a50a016c7,
	"ECE15/onoff/12":     0x8128be4c51c06951,
	"ECE15/onoff/13":     0x804dc9ec6504a148,
	"ECE15/onoff/14":     0x5ed70b059a0fc33d,
	"ECE15/onoff/15":     0x092953d1a1bb5450,
	"ECE15/fuzzy/0":      0xf82327cfabf212e2,
	"ECE15/fuzzy/1":      0xa89b2bace7f7bb60,
	"ECE15/fuzzy/2":      0x2af1be0a55805788,
	"ECE15/fuzzy/3":      0x318e403771b12caa,
	"ECE15/fuzzy/4":      0x2b38dfa5af9470b0,
	"ECE15/fuzzy/5":      0xc47b316e96013106,
	"ECE15/fuzzy/6":      0xf0bcdda8a150a67c,
	"ECE15/fuzzy/7":      0x575cecd6d7bcbe8e,
	"ECE15/fuzzy/8":      0xf9d24961f59c6a28,
	"ECE15/fuzzy/9":      0x69407a3d023d29ec,
	"ECE15/fuzzy/10":     0xadd1af5fcc187d74,
	"ECE15/fuzzy/11":     0x2d1fdd9311150bde,
	"ECE15/fuzzy/12":     0xf82327cfabf212e2,
	"ECE15/fuzzy/13":     0x596309195f25b6b1,
	"ECE15/fuzzy/14":     0x995dc4e2134d7949,
	"ECE15/fuzzy/15":     0x0d1107af7ad9f8b0,
	"UDDS/onoff/0":       0x038df45f1a557d5d,
	"UDDS/onoff/1":       0xc76f18ef8766b598,
	"UDDS/onoff/2":       0xeab67683ab81414a,
	"UDDS/onoff/3":       0xf3c7601acef71102,
	"UDDS/onoff/4":       0x7569fc2e5c82ec22,
	"UDDS/onoff/5":       0xc322688ef37d5183,
	"UDDS/onoff/6":       0x1e9559ef96dddd07,
	"UDDS/onoff/7":       0xeaa8dd7e7cb57397,
	"UDDS/onoff/8":       0xe4cd516d6c2b98ff,
	"UDDS/onoff/9":       0x69f084eb6799be69,
	"UDDS/onoff/10":      0x0dd100b640d60d4a,
	"UDDS/onoff/11":      0x698f38b2e4a2b242,
	"UDDS/onoff/12":      0x038df45f1a557d5d,
	"UDDS/onoff/13":      0x8ebe50e034662d1f,
	"UDDS/onoff/14":      0x1130ad3d367a7fd1,
	"UDDS/onoff/15":      0xf3c7601acef71102,
	"UDDS/fuzzy/0":       0x93a1faaca0e436ce,
	"UDDS/fuzzy/1":       0x4e5c11a666283c64,
	"UDDS/fuzzy/2":       0x750ba448b6150861,
	"UDDS/fuzzy/3":       0x4b4ff9e93a4614fe,
	"UDDS/fuzzy/4":       0x58605c1bec849a89,
	"UDDS/fuzzy/5":       0xc940b8681ee9d9b2,
	"UDDS/fuzzy/6":       0x1536f4edc61c63d1,
	"UDDS/fuzzy/7":       0x6de91b78ff14ea68,
	"UDDS/fuzzy/8":       0xf4969e9c8c82aad5,
	"UDDS/fuzzy/9":       0x94f463ffb343ebf1,
	"UDDS/fuzzy/10":      0x5b62adc30aa1e279,
	"UDDS/fuzzy/11":      0xef8b473f08e23199,
	"UDDS/fuzzy/12":      0x93a1faaca0e436ce,
	"UDDS/fuzzy/13":      0xda16809aa44a7fcb,
	"UDDS/fuzzy/14":      0x54ad72c85d5fef11,
	"UDDS/fuzzy/15":      0x5aa4bf1378c5dfa8,
	"US06/onoff/0":       0xdc8964a7de77c7a9,
	"US06/onoff/1":       0x0d137a144337d8b9,
	"US06/onoff/2":       0xb700ad96841b27ca,
	"US06/onoff/3":       0x86a7f8ac5593906b,
	"US06/onoff/4":       0x2a7fbcb7213ddda9,
	"US06/onoff/5":       0x75e9ecaac1ba20a4,
	"US06/onoff/6":       0xcbe7f16a47d2c574,
	"US06/onoff/7":       0x33b6c92778a8607c,
	"US06/onoff/8":       0xac1b18ee3ab79f8e,
	"US06/onoff/9":       0xc3858c9a93e1d448,
	"US06/onoff/10":      0xefd6dfcde699a5e7,
	"US06/onoff/11":      0x0720cb5e570e7091,
	"US06/onoff/12":      0xdc8964a7de77c7a9,
	"US06/onoff/13":      0x770589f1b804535e,
	"US06/onoff/14":      0xf1c747f4a19791e0,
	"US06/onoff/15":      0x86a7f8ac5593906b,
	"US06/fuzzy/0":       0x2983d374b0a5beda,
	"US06/fuzzy/1":       0xb4836d9880986144,
	"US06/fuzzy/2":       0xd482f3073e221057,
	"US06/fuzzy/3":       0xe29d2c01e9e24771,
	"US06/fuzzy/4":       0xc358288a34b512ff,
	"US06/fuzzy/5":       0xfe95f1993de01b04,
	"US06/fuzzy/6":       0xadd1e8d5d1b128c7,
	"US06/fuzzy/7":       0xd68c6db24b28f853,
	"US06/fuzzy/8":       0x0264015aa6558d15,
	"US06/fuzzy/9":       0x6a93f5042615d4d5,
	"US06/fuzzy/10":      0xe8cccd1ebc672c95,
	"US06/fuzzy/11":      0x34f8821e11b6d6ca,
	"US06/fuzzy/12":      0x2983d374b0a5beda,
	"US06/fuzzy/13":      0xbbfac644b8fdd379,
	"US06/fuzzy/14":      0xb259dd8929b9f202,
	"US06/fuzzy/15":      0x78e65f81b078122a,
	"cold/onoff/0":       0xe19d4556f02ce588,
	"cold/onoff/1":       0xace2c0e1d707997a,
	"cold/onoff/2":       0xded17afdd6c94510,
	"cold/onoff/3":       0xe3577ee6640361c9,
	"cold/fuzzy/0":       0x611f35adf8cb9376,
	"cold/fuzzy/1":       0xe884eed15a07373d,
	"cold/fuzzy/2":       0xbcf79ad8ce147dbe,
	"cold/fuzzy/3":       0x3bb17d992d8c2d7f,
	"cold/thermal-mpc/0": 0xed38e8931cd5db4f,
	"cold/thermal-mpc/1": 0xd040ec15eda37a89,
	"cold/thermal-mpc/2": 0x7545c41eadd916be,
	"cold/thermal-mpc/3": 0x71eef4f07ac4d31d,
	"resume/fuzzy/0":     0xf82327cfabf212e2,
	"resume/fuzzy/1":     0xa89b2bace7f7bb60,
	"resume/fuzzy/2":     0x2af1be0a55805788,
	"resume/fuzzy/3":     0x318e403771b12caa,
	"resume/fuzzy/4":     0x20a57dd64d20ddd1,
}

// telemetryPins maps "telemetry/<controller>/<lane>" to the FNV-1a
// digest (laneTelemetry.digest) of one coldLaneConfigs lane's
// deterministic step spans and metrics.
var telemetryPins = map[string]uint64{
	"telemetry/fuzzy/0":       0x0900c73308d8c264,
	"telemetry/fuzzy/1":       0x797d6a718a26dc84,
	"telemetry/fuzzy/2":       0x9a1f16072d6d1380,
	"telemetry/fuzzy/3":       0xfae88664460d701a,
	"telemetry/thermal-mpc/0": 0x8864f96be3098f88,
	"telemetry/thermal-mpc/1": 0x04212f93d4c2a1dd,
	"telemetry/thermal-mpc/2": 0x45793aa4d6e721b5,
	"telemetry/thermal-mpc/3": 0xc5c5756b2131dfa8,
}

// resultDigest is the FNV-1a digest of a Result's JSON encoding: every
// metric and trace sample, bit for bit (encoding/json round-trips finite
// float64 values exactly).
func resultDigest(t *testing.T, res *Result) uint64 {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

// checkResultPin fails the test unless res matches its recorded digest.
func checkResultPin(t *testing.T, key string, res *Result) {
	t.Helper()
	want, ok := resultPins[key]
	if !ok {
		t.Fatalf("no recorded digest for %s", key)
	}
	if got := resultDigest(t, res); got != want {
		t.Errorf("%s: result digest %#016x, recorded %#016x", key, got, want)
	}
}

// coldLaneConfigs builds four lanes on one cold time grid (ECE15's first
// 90 s at the co-scheduling MPC's 5 s control period): thermal lanes
// soaked at −20 °C (PTC regime) and −10 °C (heat-pump regime), a thermal
// lane under a sinusoidal ambient (the interpolating environment path
// with pack coupling), and a lane without a thermal network.
func coldLaneConfigs() []Config {
	cfgs := make([]Config, 4)
	for i := range cfgs {
		var cfg Config
		switch i {
		case 0:
			cfg = coldThermalConfig(-20)
		case 1:
			cfg = coldThermalConfig(-10)
		case 2:
			cfg = coldThermalConfig(0)
			cfg.Profile = cfg.Profile.WithAmbientFunc(func(tt float64) float64 {
				return -12 + 6*math.Sin(tt/40)
			})
		default:
			cfg = coldThermalConfig(-10)
			cfg.Thermal = nil
		}
		cfg.Profile = cfg.Profile.Truncate(90)
		cfgs[i] = cfg
	}
	return cfgs
}

// checkpointLaneConfigs is batchLaneConfigs' first four ECE15 lanes plus
// a thermal lane soaked at −10 °C on the same 1 s grid.
func checkpointLaneConfigs(t *testing.T) []Config {
	cfgs := batchLaneConfigs(t, "ECE15", 4)
	cold := coldThermalConfig(-10)
	th := DefaultConfig(cold.Profile.Truncate(240))
	th.UseAmbientStart = true
	th.Thermal = cold.Thermal
	return append(cfgs, th)
}

// laneController builds one controller of the named kind.
func laneController(t *testing.T, kind string) control.Controller {
	t.Helper()
	switch kind {
	case "onoff":
		return control.NewOnOff(hvacModel(t))
	case "fuzzy":
		return control.NewFuzzy(hvacModel(t))
	case "thermal-mpc":
		return thermalMPC(t)
	}
	t.Fatalf("unknown controller kind %q", kind)
	return nil
}

// runLaneOfOne runs one configuration through Runner.Run, the one-lane
// batch.
func runLaneOfOne(t *testing.T, cfg Config, ctrl control.Controller) *Result {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// laneTelemetry is one lane's telemetry sink and what it recorded.
type laneTelemetry struct {
	reg *telemetry.Registry
	rec *telemetry.StepTrace
}

// attachTelemetry points cfg at a fresh live sink and returns it.
func attachTelemetry(cfg *Config) laneTelemetry {
	lt := laneTelemetry{reg: telemetry.NewRegistry(), rec: telemetry.NewStepTrace(0)}
	cfg.Telemetry = telemetry.NewSink(lt.reg, lt.rec)
	return lt
}

// digest is the FNV-1a digest of the lane's deterministic telemetry: its
// step spans as timing-free JSONL followed by the registry snapshot
// through DeterministicFilter.
func (lt laneTelemetry) digest(t *testing.T) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, lt.rec.Spans(), false); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(lt.reg.Snapshot(telemetry.DeterministicFilter))
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(raw)
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64()
}

// checkTelemetryPin fails the test unless the lane's telemetry matches
// its recorded digest; lanes without a recording are not checked.
func checkTelemetryPin(t *testing.T, key string, lt laneTelemetry) {
	t.Helper()
	if want, ok := telemetryPins[key]; ok {
		if got := lt.digest(t); got != want {
			t.Errorf("%s: telemetry digest %#016x, recorded %#016x", key, got, want)
		}
	}
}

// TestThermalLanesMatchPinnedDigests pins thermal lanes in the batch
// core: for each controller, a lockstep batch mixing thermal and
// non-thermal lanes (the SoA on/off and fuzzy kernels, and ScalarBatch
// for the co-scheduling MPC) and one-lane runs of the same lanes agree
// byte for byte and reproduce the recorded Result digests and — with
// every lane reporting to its own sink — the recorded telemetry digests
// (step spans with pack temperature, heater/chiller commands, and COP;
// the pack, heat-pump, solver, and step series). The mixed case batches
// all three controller families together.
func TestThermalLanesMatchPinnedDigests(t *testing.T) {
	for _, kind := range []string{"onoff", "fuzzy", "thermal-mpc", "mixed"} {
		t.Run(kind, func(t *testing.T) {
			cfgs := coldLaneConfigs()
			kinds := make([]string, len(cfgs))
			ctrls := make([]control.Controller, len(cfgs))
			tels := make([]laneTelemetry, len(cfgs))
			for i := range cfgs {
				kinds[i] = kind
				if kind == "mixed" {
					kinds[i] = []string{"onoff", "fuzzy", "thermal-mpc"}[i%3]
				}
				ctrls[i] = laneController(t, kinds[i])
				tels[i] = attachTelemetry(&cfgs[i])
			}
			br, err := NewBatch(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			bres, err := br.Run(control.Batch(ctrls))
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				if cfg.Thermal != nil && len(bres[i].Trace.PackC) != len(bres[i].Trace.Time) {
					t.Errorf("lane %d: %d pack samples for %d steps", i, len(bres[i].Trace.PackC), len(bres[i].Trace.Time))
				}
				lane := kinds[i] + "/" + strconv.Itoa(i)
				checkResultPin(t, "cold/"+lane, bres[i])
				checkTelemetryPin(t, "telemetry/"+lane, tels[i])
				if kind == "mixed" {
					continue // the per-kind cases ran these lanes alone
				}
				one := attachTelemetry(&cfg)
				sres := runLaneOfOne(t, cfg, laneController(t, kinds[i]))
				want, _ := json.Marshal(sres)
				got, _ := json.Marshal(bres[i])
				if string(want) != string(got) {
					t.Errorf("lane %d: lane-of-%d result diverges from lane-of-1", i, len(cfgs))
				}
				checkTelemetryPin(t, "telemetry/"+lane, one)
			}
		})
	}
}

// TestRecordedCheckpointsResume pins checkpoint compatibility across the
// engine change: a non-thermal (fuzzy, fault-injected) and a thermal
// (co-scheduling MPC) checkpoint written by the scalar step loop resume
// bit-exactly to the recorded uninterrupted results, and an
// uninterrupted run emits the same checkpoint bytes at the same step.
func TestRecordedCheckpointsResume(t *testing.T) {
	for _, tc := range []struct {
		file string
		cfg  Config
		kind string
		pin  string
	}{
		{"checkpoint_fuzzy_faults_ece15.json", checkpointLaneConfigs(t)[3], "fuzzy", "resume/fuzzy/3"},
		{"checkpoint_thermal_mpc_cold.json", coldLaneConfigs()[2], "thermal-mpc", "cold/thermal-mpc/2"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			recorded, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var ck Checkpoint
			if err := json.Unmarshal(recorded, &ck); err != nil {
				t.Fatal(err)
			}
			if (ck.Thermal != nil) != (tc.cfg.Thermal != nil) {
				t.Fatalf("recorded checkpoint thermal state %v, config thermal %v", ck.Thermal != nil, tc.cfg.Thermal != nil)
			}
			r, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunWith(laneController(t, tc.kind), RunOptions{Resume: &ck})
			if err != nil {
				t.Fatal(err)
			}
			checkResultPin(t, tc.pin, res)

			var emitted []byte
			r2, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			full, err := r2.RunWith(laneController(t, tc.kind), RunOptions{
				CheckpointEvery: ck.Step,
				OnCheckpoint: func(c *Checkpoint) error {
					if emitted == nil {
						emitted, err = json.Marshal(c)
						return err
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			checkResultPin(t, tc.pin, full)
			if !bytes.Equal(emitted, recorded) {
				t.Errorf("checkpoint at step %d differs from the recorded bytes", ck.Step)
			}
		})
	}
}
