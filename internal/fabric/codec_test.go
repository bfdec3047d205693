package fabric

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/core"
	"evclimate/internal/runner"
	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
	"evclimate/internal/thermal"
)

// liveRecords runs a spec with private metric snapshots (and step
// spans when trace is set) and returns its journal-form records in
// expansion order — exactly what a worker's pool hands the codec.
func liveRecords(t testing.TB, spec runner.Spec, trace bool) []*runner.JournalRecord {
	t.Helper()
	jobs, err := runner.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var recs []*runner.JournalRecord
	opts := runner.Options{
		Workers:   2,
		Telemetry: telemetry.NewRegistry(),
		OnRecord: func(rec *runner.JournalRecord) {
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		},
	}
	if trace {
		opts.TraceLog = &telemetry.TraceLog{}
	}
	_, err = runner.RunJobs(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Index < recs[b].Index })
	return recs
}

// codecRecords covers every record shape the fabric carries: On/Off and
// Fuzzy on the cabin plant, MPC and thermal co-scheduling MPC on the
// soaked thermal plant, all with spans and metrics, plus a failed
// record (Err set, Result nil).
func codecRecords(t *testing.T) []*runner.JournalRecord {
	t.Helper()
	recs := liveRecords(t, mustSpec(t), true)
	base := sim.DefaultConfig(nil)
	th := thermal.DefaultThermal()
	base.Thermal = &th
	recs = append(recs, liveRecords(t, runner.Spec{
		Controllers: []runner.ControllerSpec{
			runner.MPCSpec(core.DefaultConfig(), 5),
			runner.ThermalMPCSpec(core.DefaultConfig(), 5),
		},
		Cycles:           []runner.CycleSpec{{Name: "ECE15"}},
		Envs:             []runner.Env{{AmbientC: -10}},
		Targets:          []float64{22},
		MaxProfileS:      40,
		StartFromAmbient: true,
		Base:             &base,
		BaseSeed:         5,
	}, true)...)
	return append(recs, negZeroRecord(t, recs[0]), &runner.JournalRecord{
		Kind: "job", Index: 3, Fingerprint: "00deadbeef00caf3", Seed: -42,
		Attempts: 2, ElapsedNs: 123456789, EscalatedTo: "On/Off",
		Err: "synthetic failure",
	})
}

// negZeroRecord derives from a traced live record one that a codec
// dropping zero-valued fields (as encoding/gob does) would corrupt: -0
// in a Result scalar, a StepSpan field, a Trace.Inputs entry and a
// Metric.Value, and an empty but non-nil trace column. The journal
// writes these as "-0" and "[]", so they must survive byte for byte.
func negZeroRecord(t *testing.T, live *runner.JournalRecord) *runner.JournalRecord {
	t.Helper()
	blob, err := encodeRecord(live)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecord(blob) // a deep copy
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result == nil || len(rec.Spans) == 0 || len(rec.Result.Trace.Inputs) == 0 || len(rec.Metrics) == 0 {
		t.Fatalf("job %d: need a traced record with a result and metrics", rec.Index)
	}
	negZero := math.Copysign(0, -1)
	rec.Result.AvgHVACW = negZero
	rec.Spans[0].CoilC = negZero
	rec.Result.Trace.Inputs[0].Recirc = negZero
	rec.Metrics[0].Value = negZero
	rec.Result.Trace.PackC = []float64{}
	return rec
}

// TestRecordCodecRoundTrip is the codec property: for every record
// shape, encode then decode is reflect.DeepEqual to the original, and
// the decoded record marshals to the original's journal JSON byte for
// byte — so a journal written from wire records cannot drift from one
// written in process.
func TestRecordCodecRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates real cycles")
	}
	recs := codecRecords(t)
	labels := map[string]bool{}
	spans, metrics, thermalTraces := 0, 0, 0
	for _, rec := range recs {
		if rec.Result != nil {
			labels[rec.Result.Controller] = true
			if rec.Result.Trace.PackC != nil {
				thermalTraces++
			}
		}
		spans += len(rec.Spans)
		metrics += len(rec.Metrics)
	}
	if len(labels) != 4 || spans == 0 || metrics == 0 || thermalTraces == 0 {
		t.Fatalf("fixture too thin: controllers %v, %d spans, %d metrics, %d thermal traces",
			labels, spans, metrics, thermalTraces)
	}
	for _, rec := range recs {
		blob, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("job %d: encode: %v", rec.Index, err)
		}
		back, err := decodeRecord(blob)
		if err != nil {
			t.Fatalf("job %d: decode: %v", rec.Index, err)
		}
		if !reflect.DeepEqual(rec, back) {
			t.Errorf("job %d: decoded record differs from the original", rec.Index)
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %d: journal JSON drifted across the codec", rec.Index)
		}
	}

	// The exactness record, field by field: DeepEqual cannot see a
	// lost sign (-0 == +0).
	blob, err := encodeRecord(negZeroRecord(t, recs[0]))
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeRecord(blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]float64{
		"Result.AvgHVACW":               back.Result.AvgHVACW,
		"Spans[0].CoilC":                back.Spans[0].CoilC,
		"Result.Trace.Inputs[0].Recirc": back.Result.Trace.Inputs[0].Recirc,
		"Metrics[0].Value":              back.Metrics[0].Value,
	} {
		if f != 0 || !math.Signbit(f) {
			t.Errorf("%s decoded as %v, want -0", name, f)
		}
	}
	if pc := back.Result.Trace.PackC; pc == nil || len(pc) != 0 {
		t.Errorf("empty Trace.PackC decoded as %#v, want []float64{}", pc)
	}
}

// TestDecodeRecordRejects: a blob encodeRecord could not have written
// is an error, never a record.
func TestDecodeRecordRejects(t *testing.T) {
	rec := &runner.JournalRecord{
		Kind: "job", Index: 7, Fingerprint: "00deadbeef00caf3", Seed: -3,
		Result: &sim.Result{Controller: "On/Off", AvgHVACW: 1.5,
			Trace: sim.Trace{Time: []float64{0, 1}}},
	}
	blob, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := decodeRecord(blob); err != nil || !reflect.DeepEqual(back, rec) {
		t.Fatalf("intact blob: %v", err)
	}
	otherLayout := append([]byte(nil), blob...)
	otherLayout[0] ^= 1
	// "job" is the first field after the layout hash: its length 3 as a
	// two-byte varint, 0x83 0x00, is the same value written non-minimally.
	nonMinimal := append(append(append([]byte(nil), blob[:8]...), 0x83, 0x00), blob[9:]...)
	for name, bad := range map[string][]byte{
		"empty":         nil,
		"layout only":   blob[:8],
		"truncated":     blob[:len(blob)-1],
		"trailing byte": append(append([]byte(nil), blob...), 0),
		"other layout":  otherLayout,
		"non-minimal":   nonMinimal,
	} {
		if _, err := decodeRecord(bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzDecodeComplete feeds arbitrary /complete bodies to the handler.
// It must never panic, and no record whose blob failed its checksum may
// be stored: a rejected body stores nothing, and an accepted one must
// decode, carry one matching checksum per blob, and have every blob's
// record stored.
func FuzzDecodeComplete(f *testing.F) {
	spec, err := gridBuilder(gridParams)
	if err != nil {
		f.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec: spec, SpecName: "grid", Params: gridParams,
		Label: "fuzz", UnitSize: 1000, Git: "test",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { coord.Close() })
	valid := func(recs ...*runner.JournalRecord) []byte {
		req := &CompleteRequest{Worker: "w", Lease: 1, Unit: 0, RequestID: 5}
		for _, rec := range recs {
			blob, err := encodeRecord(rec)
			if err != nil {
				f.Fatal(err)
			}
			req.Records = append(req.Records, blob)
			req.Sums = append(req.Sums, blobSum(blob))
		}
		body, err := encodeComplete(req)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	// A record with floats, slices and a pointer, valid for job 2.
	full := failedRecord(coord, 2, 1)
	full.Err = ""
	full.Result = &sim.Result{
		Controller: "On/Off", AvgHVACW: math.Copysign(0, -1), DeltaSoH: 1e-3,
		Trace: sim.Trace{Time: []float64{0, 1}, PackC: []float64{}, Inputs: []cabin.Inputs{{Recirc: 0.5}}},
	}
	full.Spans = []telemetry.StepSpan{{Step: 1, CoilC: 3, Rung: -1}}
	full.Metrics = telemetry.Snapshot{{Name: "m", Kind: "counter", Value: 2}}
	blob, err := encodeRecord(full)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(valid(full))
	body := valid(failedRecord(coord, 0, 1), failedRecord(coord, 1, 2))
	f.Add(body)
	f.Add(body[:len(body)/2])
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)*3/4] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte(`{"worker":"w","records":[]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		// The record codec on its own: any input either fails to decode
		// or is exactly the encoding of what it decodes to.
		if rec, err := decodeRecord(body); err == nil {
			again, err := encodeRecord(rec)
			if err != nil || !bytes.Equal(again, body) {
				t.Fatalf("decoded blob does not re-encode to itself (%v)", err)
			}
		}

		// A fresh store per input, so acceptance is judged on this body.
		coord.mu.Lock()
		coord.store = newMemStore()
		coord.seen = make(map[completionKey]*CompleteReply)
		coord.mu.Unlock()

		w := httptest.NewRecorder()
		coord.handleComplete(w, httptest.NewRequest(http.MethodPost, "/complete", bytes.NewReader(body)))
		stored := coord.Snapshot().Completed
		if w.Code != http.StatusOK {
			if stored != 0 {
				t.Fatalf("rejected body (%d) stored %d records", w.Code, stored)
			}
			return
		}
		var req CompleteRequest
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		if len(req.Sums) != len(req.Records) {
			t.Fatalf("accepted %d checksums for %d records", len(req.Sums), len(req.Records))
		}
		for k, blob := range req.Records {
			if blobSum(blob) != req.Sums[k] {
				t.Fatalf("accepted blob %d whose checksum does not match", k)
			}
			want, err := decodeRecord(blob)
			if err != nil {
				t.Fatalf("accepted blob %d that does not decode: %v", k, err)
			}
			got, err := coord.store.Get(want.Index)
			if err != nil || got == nil {
				t.Fatalf("accepted record for job %d not stored: %v", want.Index, err)
			}
		}
	})
}

// BenchmarkCompleteCodec is the protocol layer of one /complete round
// trip without the network: encode and checksum one full-length 8-record
// grid unit (On/Off and Fuzzy on ECE15 and UDDS with metric snapshots,
// untraced, as a sweep worker produces them), gob-frame the request,
// then decode it, verify every checksum, and decode every record (as
// the coordinator does). bytes/record is the wire size per record.
func BenchmarkCompleteCodec(b *testing.B) {
	spec, err := gridBuilder(map[string]string{"seed": "42", "max_s": "0"})
	if err != nil {
		b.Fatal(err)
	}
	recs := liveRecords(b, spec, false)
	var wire int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &CompleteRequest{Worker: "w", Lease: 1, Unit: 0, RequestID: 1}
		for _, rec := range recs {
			blob, err := encodeRecord(rec)
			if err != nil {
				b.Fatal(err)
			}
			req.Records = append(req.Records, blob)
			req.Sums = append(req.Sums, blobSum(blob))
		}
		body, err := encodeComplete(req)
		if err != nil {
			b.Fatal(err)
		}
		wire = len(body)
		var got CompleteRequest
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&got); err != nil {
			b.Fatal(err)
		}
		back, err := openComplete(&got)
		if err != nil || len(back) != len(recs) {
			b.Fatalf("openComplete: %d records, %v", len(back), err)
		}
	}
	b.ReportMetric(float64(wire)/float64(len(recs)), "bytes/record")
}
