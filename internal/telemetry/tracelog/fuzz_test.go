package tracelog

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"broadcastic/internal/telemetry/causal"
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

// FuzzSink drives a live Sink with arbitrary causal records — any name,
// any attrs (non-integer link attrs included), spans that end before they
// start, extreme timestamps — and requires WriteTo to always produce JSON
// that re-parses and keeps every record.
func FuzzSink(f *testing.F) {
	f.Add("sim.cell", "cell", "3", int64(10), int64(20), uint64(1), false)
	f.Add("netrun.hop", "link", "x\"y", int64(5), int64(1), uint64(0), true)
	f.Add("", "", "", int64(math.MinInt64), int64(math.MaxInt64), uint64(7), false)
	f.Add("evil\"name\\\x00\xff", "link", "\n", int64(-1), int64(-1), uint64(1<<63), true)
	f.Fuzz(func(t *testing.T, name, key, value string, start, end int64, parent uint64, fault bool) {
		s := New("fuzz-run")
		attrs := []causal.Attr{{Key: key, Value: value}}
		for i, kind := range []causal.Kind{causal.KindSpan, causal.KindEvent, causal.KindSpan} {
			s.CausalEvent(causal.Record{
				Trace:  causal.TraceID(parent % 3),
				Span:   causal.SpanID(i + 1),
				Parent: causal.SpanID(parent),
				Kind:   kind,
				Name:   name,
				Start:  start + int64(i),
				End:    end,
				Fault:  fault,
				Attrs:  attrs,
			})
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo failed: %v", err)
		}
		var back Trace
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("sink trace does not re-parse: %v\n%s", err, buf.Bytes())
		}
		records := 0
		for _, ev := range back.TraceEvents {
			if ev.Phase != "M" {
				records++
			}
		}
		if records != 3 {
			t.Fatalf("trace has %d record events for 3 records", records)
		}
	})
}
