package tracelog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/disj"
	"broadcastic/internal/faults"
	"broadcastic/internal/netrun"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry/causal"
)

func decodeTrace(t *testing.T, b []byte) *Trace {
	t.Helper()
	var tr Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return &tr
}

func encodeSink(t *testing.T, s *Sink) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return decodeTrace(t, buf.Bytes())
}

// threadNames maps each (pid, tid) of a trace to its thread_name label.
func threadNames(tr *Trace) map[[2]int]string {
	out := map[[2]int]string{}
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "M" && ev.Name == "thread_name" {
			name, _ := ev.Args["name"].(string)
			out[[2]int{ev.Pid, ev.Tid}] = name
		}
	}
	return out
}

// TestNetrunE20Trace is the acceptance pin for run traces: an E20-style
// netrun execution (optimal DISJ protocol under a drop/dup/corrupt fault
// mix) traced through a Sink attached to its causal context yields
// parseable Chrome trace JSON with netrun.turn spans, netrun.hop spans on
// every link's row, and one netrun.fault instant per injected fault —
// while the transcript stays bit-identical to the sequential reference.
func TestNetrunE20Trace(t *testing.T) {
	const n, k = 256, 6
	inst, err := disj.GenerateFromMuN(rng.New(20), n, k)
	if err != nil {
		t.Fatal(err)
	}
	refProto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := blackboard.Run(refProto.Scheduler(), refProto.Players(), nil, refProto.Limits())
	if err != nil {
		t.Fatal(err)
	}

	plan, err := faults.Parse("drop=0.05,dup=0.05,corrupt=0.02")
	if err != nil {
		t.Fatal(err)
	}
	sink := New("E20-seed20")
	cause := causal.NewRecorder(0).StartTraceSink(sink, causal.ExperimentRoot,
		causal.String("runId", sink.RunID()))
	proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, netrun.Config{
		Faults:  plan,
		Seed:    99,
		Timeout: time.Second,
		Limits:  proto.Limits(),
		Causal:  cause,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Board.TranscriptKey() != refRes.Board.TranscriptKey() {
		t.Fatal("traced networked run diverged from sequential reference")
	}

	tr := encodeSink(t, sink)
	rows := threadNames(tr)
	turns, faultInstants := 0, 0
	linkHops := map[string]int{}
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Phase == "X" && ev.Name == causal.NetrunTurn:
			turns++
		case ev.Phase == "X" && ev.Name == causal.NetrunHop:
			row := rows[[2]int{ev.Pid, ev.Tid}]
			link, _, _ := strings.Cut(strings.TrimPrefix(row, "link "), " (lane")
			if want := "link " + fmt.Sprint(ev.Args["link"]); !strings.HasPrefix(row, want) {
				t.Fatalf("hop on link %v sits on row %q", ev.Args["link"], row)
			}
			linkHops[link]++
		case ev.Phase == "i" && ev.Name == causal.NetrunFault:
			faultInstants++
			if ev.Args["fault"] != true {
				t.Errorf("fault instant args = %v", ev.Args)
			}
		}
	}
	if turns != res.Board.NumMessages() {
		t.Errorf("trace has %d netrun.turn spans for %d messages", turns, res.Board.NumMessages())
	}
	// The run uses the default star, whose link i is player i's.
	for i := 0; i < k; i++ {
		if linkHops[fmt.Sprint(i)] == 0 {
			t.Errorf("no hop spans on link %d's row; have %v", i, linkHops)
		}
	}
	injected := res.Stats.Faults
	total := int(injected.Drops + injected.Duplicates + injected.Corruptions + injected.Delays)
	if total == 0 {
		t.Fatal("fault mix injected nothing; the trace assertion is vacuous")
	}
	if faultInstants != total {
		t.Errorf("trace has %d fault instants, stats report %d injected faults", faultInstants, total)
	}
}

// TestSinkRowsAndLanes pins the record→row rule and the lane split: a
// link attr picks the "link <l>" row whatever the name, other records sit
// on their name's first segment, and spans that overlap on one row go to
// separate lanes while disjoint ones share the first.
func TestSinkRowsAndLanes(t *testing.T) {
	s := New("rows")
	span := func(id uint64, name string, start, end int64, attrs ...causal.Attr) {
		s.CausalEvent(causal.Record{Trace: 1, Span: causal.SpanID(id), Parent: 1,
			Kind: causal.KindSpan, Name: name, Start: start, End: end, Attrs: attrs})
	}
	span(2, causal.SimCell, 0, 100)
	span(3, causal.SimCell, 50, 150)  // overlaps cell 2: second lane
	span(4, causal.SimCell, 100, 120) // starts as cell 2 ends: first lane
	span(5, causal.NetrunHop, 10, 20, causal.String("link", "3"))
	span(6, causal.NetrunHop, 15, 25, causal.String("link", "3")) // the other direction
	s.CausalEvent(causal.Record{Trace: 1, Span: 7, Parent: 1, Kind: causal.KindEvent,
		Name: causal.NetrunFault, Start: 12, Fault: true, Attrs: []causal.Attr{causal.String("link", "3")}})
	span(8, causal.CoreShard, 5, 6)

	tr := encodeSink(t, s)
	rows := threadNames(tr)
	rowBySpan := map[string]string{}
	for _, ev := range tr.TraceEvents {
		if ev.Phase != "M" {
			rowBySpan[ev.Args["span"].(string)] = rows[[2]int{ev.Pid, ev.Tid}]
		}
	}
	want := map[causal.SpanID]string{
		2: "sim", 3: "sim (lane 2)", 4: "sim",
		5: "link 3", 6: "link 3 (lane 2)", 7: "link 3",
		8: "core",
	}
	for id, row := range want {
		if got := rowBySpan[id.String()]; got != row {
			t.Errorf("span %d on row %q, want %q", id, got, row)
		}
	}
	if n := len(rows); n != 5 {
		t.Errorf("trace has %d threads, want 5: %v", n, rows)
	}
}

// TestSinkCausalEvents pins the process mapping: each trace renders as its
// own Perfetto process — named "trace <id>" and carrying the root record's
// identity attrs — with spans as complete events, instants as instant
// events, and jobs-layer records on a "jobs" row.
func TestSinkCausalEvents(t *testing.T) {
	s := New("causal-run")
	fr := causal.NewRecorder(0)
	c1 := fr.StartTraceSink(s, causal.JobAdmission,
		causal.String("tenant", "acme"), causal.String("experiment", "E20"))
	sp := c1.StartSpan(nil, causal.JobExecute, causal.String("job", "j000001"))
	sp.Context().Fault(causal.NetrunFault, causal.String("fault", "drop"))
	sp.End()
	c2 := fr.StartTraceSink(s, causal.JobAdmission, causal.String("tenant", "bee"))
	c2.Event(causal.JobDispatch)
	tr := encodeSink(t, s)
	if tr.OtherData["runId"] != "causal-run" {
		t.Errorf("runId = %q, want causal-run", tr.OtherData["runId"])
	}

	pids := map[string]int{} // trace id -> pid
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "M" && ev.Name == "process_name" {
			id, _ := ev.Args["trace"].(string)
			pids[id] = ev.Pid
			if name, _ := ev.Args["name"].(string); name != "trace "+id {
				t.Errorf("process name = %q, want %q", name, "trace "+id)
			}
			if id == c1.Trace().String() {
				// The root's identity attrs promote onto the process.
				if ev.Args["tenant"] != "acme" || ev.Args["experiment"] != "E20" {
					t.Errorf("process args = %v, want tenant/experiment", ev.Args)
				}
			}
		}
	}
	if len(pids) != 2 || pids[c1.Trace().String()] == pids[c2.Trace().String()] {
		t.Fatalf("causal processes = %v, want two distinct pids", pids)
	}

	rows := threadNames(tr)
	var sawExec, sawFault, sawDispatch bool
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Phase == "X" && ev.Name == causal.JobExecute:
			sawExec = true
			if ev.Pid != pids[c1.Trace().String()] || rows[[2]int{ev.Pid, ev.Tid}] != "jobs" {
				t.Errorf("execute span on pid %d row %q", ev.Pid, rows[[2]int{ev.Pid, ev.Tid}])
			}
			if ev.Args["job"] != "j000001" || ev.Args["span"] == nil {
				t.Errorf("execute span args = %v", ev.Args)
			}
		case ev.Phase == "i" && ev.Name == causal.NetrunFault:
			sawFault = true
			if ev.Args["fault"] != true || ev.Args["parent"] == nil {
				t.Errorf("fault instant args = %v", ev.Args)
			}
		case ev.Phase == "i" && ev.Name == causal.JobDispatch:
			sawDispatch = true
			if ev.Pid != pids[c2.Trace().String()] {
				t.Errorf("dispatch on pid %d, want %d", ev.Pid, pids[c2.Trace().String()])
			}
		}
	}
	if !sawExec || !sawFault || !sawDispatch {
		t.Fatalf("missing causal events: exec=%v fault=%v dispatch=%v", sawExec, sawFault, sawDispatch)
	}
}

// TestSnapshotDeterministicForEqualRuns: the same records arriving in a
// different order (as concurrent spans do) encode to the same bytes.
func TestSnapshotDeterministicForEqualRuns(t *testing.T) {
	recs := []causal.Record{
		{Trace: 2, Span: 9, Kind: causal.KindEvent, Name: causal.ExperimentRoot, Start: 1},
		{Trace: 1, Span: 1, Kind: causal.KindEvent, Name: causal.JobAdmission, Start: 0},
		{Trace: 1, Span: 2, Parent: 1, Kind: causal.KindSpan, Name: causal.SimCell, Start: 5, End: 50},
		{Trace: 1, Span: 3, Parent: 1, Kind: causal.KindSpan, Name: causal.SimCell, Start: 5, End: 40},
		{Trace: 2, Span: 10, Parent: 9, Kind: causal.KindSpan, Name: causal.NetrunHop, Start: 3, End: 4,
			Attrs: []causal.Attr{causal.String("link", "0")}},
	}
	build := func(order []int) []byte {
		s := New("same-run")
		for _, i := range order {
			s.CausalEvent(recs[i])
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := build([]int{0, 1, 2, 3, 4}), build([]int{4, 3, 2, 1, 0}); !bytes.Equal(a, b) {
		t.Fatalf("equal record sets produced different traces:\n%s\n%s", a, b)
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	s := New("E20-seed1")
	causal.NewRecorder(0).StartTraceSink(s, causal.ExperimentRoot).Event(causal.JobDone)
	path, err := s.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, FileName("E20-seed1")) {
		t.Errorf("WriteFile path = %q", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr := decodeTrace(t, b); len(tr.TraceEvents) == 0 {
		t.Error("written trace is empty")
	}
	if _, err := s.WriteFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}

func TestFileName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"E20-seed1", "E20-seed1.trace.json"},
		{"a/b c", "a_b_c.trace.json"},
		{"", "_.trace.json"},
	}
	for _, c := range cases {
		if got := FileName(c.in); got != c.want {
			t.Errorf("FileName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func ExampleFileName() {
	fmt.Println(FileName("E20-seed1"))
	// Output: E20-seed1.trace.json
}
