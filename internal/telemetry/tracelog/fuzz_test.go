package tracelog

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzEncode drives the trace-event encoder with adversarial event
// contents — malformed metric names, NaN/Inf timestamps, durations and
// values — and requires the output to always re-parse as JSON.
func FuzzEncode(f *testing.F) {
	f.Add("sim.cell_ns", "X", 1.5, 2.5, int64(3), "run-1")
	f.Add("", "i", math.NaN(), math.Inf(1), int64(-1), "")
	f.Add("evil\"name\\\x00\xff", "C", math.Inf(-1), -0.0, int64(1<<62), "run\n2")
	f.Add("netrun.topo.999999999999.ack_ns", "M", 1e308, 1e308, int64(0), "s")
	f.Fuzz(func(t *testing.T, name, phase string, ts, dur float64, delta int64, runID string) {
		tr := &Trace{
			TraceEvents: []Event{{
				Name: name, Phase: phase, Ts: ts, Dur: dur, Pid: 1, Tid: 7,
				Args: map[string]any{"value": dur, "delta": delta, "runId": runID},
			}},
			OtherData: map[string]string{"runId": runID},
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatalf("Encode failed: %v", err)
		}
		var back Trace
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("encoded trace does not re-parse: %v\n%s", err, buf.Bytes())
		}
		if len(back.TraceEvents) != 1 {
			t.Fatalf("round trip lost events: %d", len(back.TraceEvents))
		}
	})
}

// FuzzSink drives a live Sink with arbitrary metric activity and requires
// WriteTo to always produce parseable JSON.
func FuzzSink(f *testing.F) {
	f.Add("blackboard.bits", int64(5), "sim.cell_ns", 100.0)
	f.Add("netrun.topo.3.faults.drop", int64(1), "netrun.topo.3.ack_ns", math.Inf(1))
	f.Add("", int64(0), "", math.NaN())
	f.Fuzz(func(t *testing.T, countName string, delta int64, obsName string, value float64) {
		s := New("fuzz-run", nil)
		s.Count(countName, delta)
		s.Observe(obsName, value)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo failed: %v", err)
		}
		var back Trace
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("sink trace does not re-parse: %v\n%s", err, buf.Bytes())
		}
	})
}
