package tracelog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/disj"
	"broadcastic/internal/faults"
	"broadcastic/internal/netrun"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
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

func TestSinkSpanAndCounterEvents(t *testing.T) {
	s := New("run-1", nil)
	s.Count("blackboard.bits", 10)
	s.Count("blackboard.bits", 5)
	s.Observe("sim.cell_ns", 2e6) // a 2ms span
	s.Count("netrun.topo.2.faults.drop", 1)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, buf.Bytes())
	if tr.OtherData["runId"] != "run-1" {
		t.Errorf("runId = %q, want run-1", tr.OtherData["runId"])
	}
	var sawSpan, sawCounter, sawInstant, sawLinkTrack bool
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Phase == "X" && ev.Name == "sim.cell_ns":
			sawSpan = true
			if ev.Dur < 1900 || ev.Dur > 2100 {
				t.Errorf("span dur = %v µs, want ≈2000", ev.Dur)
			}
		case ev.Phase == "C" && ev.Name == "blackboard.bits":
			sawCounter = true
		case ev.Phase == "i" && ev.Name == "netrun.topo.2.faults.drop":
			sawInstant = true
			if ev.Tid != linkTidBase+2 {
				t.Errorf("fault instant on tid %d, want %d", ev.Tid, linkTidBase+2)
			}
		case ev.Phase == "M" && ev.Name == "thread_name":
			if name, _ := ev.Args["name"].(string); name == "link 2" {
				sawLinkTrack = true
			}
		}
	}
	if !sawSpan || !sawCounter || !sawInstant || !sawLinkTrack {
		t.Fatalf("missing events: span=%v counter=%v instant=%v linkTrack=%v",
			sawSpan, sawCounter, sawInstant, sawLinkTrack)
	}
	// The last blackboard.bits counter event must carry the cumulative 15.
	var last float64
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "C" && ev.Name == "blackboard.bits" {
			last, _ = ev.Args["value"].(float64)
		}
	}
	if last != 15 {
		t.Errorf("cumulative counter = %v, want 15", last)
	}
}

func TestSinkTeesToNext(t *testing.T) {
	col := telemetry.NewCollector()
	s := New("tee", col)
	s.Count("blackboard.bits", 7)
	s.Observe("sim.cell_ns", 42)
	if got := col.Counter("blackboard.bits"); got != 7 {
		t.Errorf("teed counter = %d, want 7", got)
	}
	if got := col.Hist("sim.cell_ns").Count; got != 1 {
		t.Errorf("teed histogram count = %d, want 1", got)
	}
}

// TestNetrunE20Trace is the acceptance pin for the tentpole: an E20-style
// netrun execution (optimal DISJ protocol under a drop/dup/corrupt fault
// mix) traced through a Sink yields parseable Chrome trace JSON containing
// spans for the coordinator, spans for every link, and one instant event
// per injected fault — while the transcript stays bit-identical to the
// sequential reference.
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
	col := telemetry.NewCollector()
	sink := New("E20-seed20", col)
	proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, netrun.Config{
		Faults:   plan,
		Seed:     99,
		Timeout:  time.Second,
		Limits:   proto.Limits(),
		Recorder: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Board.TranscriptKey() != refRes.Board.TranscriptKey() {
		t.Fatal("traced networked run diverged from sequential reference")
	}

	var buf bytes.Buffer
	if _, err := sink.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, buf.Bytes())

	coordSpans := 0
	linkSpans := make(map[int]int)
	faultInstants := 0
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Phase == "X" && ev.Name == telemetry.NetrunTurnNs:
			coordSpans++
		case ev.Phase == "X" && strings.HasPrefix(ev.Name, telemetry.NetrunTopo+".") && strings.HasSuffix(ev.Name, ".ack_ns"):
			linkSpans[ev.Tid-linkTidBase]++
		case ev.Phase == "i" && ev.Name == telemetry.NetrunFaults:
			faultInstants++
		}
	}
	if coordSpans == 0 {
		t.Error("no coordinator turn spans in trace")
	}
	// The run uses the default star, whose link i is player i's.
	for i := 0; i < k; i++ {
		if linkSpans[i] == 0 {
			t.Errorf("no spans for link %d in trace", i)
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
	// The teed collector agrees with the wire stats — the same invariant
	// the telemetry conformance tests pin for a bare Collector.
	if got := col.Counter(telemetry.NetrunWireBits); got != res.Stats.WireBits {
		t.Errorf("teed collector wire bits %d != stats %d", got, res.Stats.WireBits)
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

func TestSnapshotDeterministicForEqualRuns(t *testing.T) {
	build := func() []byte {
		s := New("same-run", nil)
		s.Count("blackboard.bits", 3)
		s.Count("netrun.topo.1.faults.drop", 1)
		tr := s.Snapshot()
		// Zero the wall-clock fields: determinism is about structure
		// (event order, tracks, names, values), not timestamps.
		for i := range tr.TraceEvents {
			tr.TraceEvents[i].Ts = 0
			tr.TraceEvents[i].Dur = 0
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Fatalf("equal runs produced different traces:\n%s\n%s", a, b)
	}
}

func ExampleFileName() {
	fmt.Println(FileName("E20-seed1"))
	// Output: E20-seed1.trace.json
}

// TestSinkCausalEvents pins the causal tee: records arriving via
// causal.EventSink render each trace as its own Perfetto process — named
// "trace <id>" and carrying the root record's identity attrs — with spans
// as complete events, instants as instant events, and jobs-layer records
// on a dedicated "jobs" thread.
func TestSinkCausalEvents(t *testing.T) {
	s := New("causal-run", nil)
	fr := causal.NewRecorder(0)
	c1 := fr.StartTraceSink(s, causal.JobAdmission,
		causal.String("tenant", "acme"), causal.String("experiment", "E20"))
	sp := c1.StartSpan(causal.JobExecute, causal.String("job", "j000001"))
	sp.Context().Fault(causal.NetrunFault, causal.String("fault", "drop"))
	sp.End()
	c2 := fr.StartTraceSink(s, causal.JobAdmission, causal.String("tenant", "bee"))
	c2.Event(causal.JobDispatch)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, buf.Bytes())

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
	if p := pids[c1.Trace().String()]; p < causalPidBase {
		t.Errorf("causal pid %d below causalPidBase", p)
	}

	var sawExec, sawFault, sawDispatch, sawJobsThread bool
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Phase == "X" && ev.Name == causal.JobExecute:
			sawExec = true
			if ev.Pid != pids[c1.Trace().String()] {
				t.Errorf("execute span on pid %d, want %d", ev.Pid, pids[c1.Trace().String()])
			}
			if ev.Args["job"] != "j000001" || ev.Args["span"] == nil {
				t.Errorf("execute span args = %v", ev.Args)
			}
		case ev.Phase == "i" && ev.Name == causal.NetrunFault:
			sawFault = true
			if ev.Args["fault"] != true {
				t.Errorf("fault instant args = %v", ev.Args)
			}
			if ev.Args["parent"] == nil {
				t.Error("fault instant lost its parent span")
			}
		case ev.Phase == "i" && ev.Name == causal.JobDispatch:
			sawDispatch = true
			if ev.Pid != pids[c2.Trace().String()] {
				t.Errorf("dispatch on pid %d, want %d", ev.Pid, pids[c2.Trace().String()])
			}
		case ev.Phase == "M" && ev.Name == "thread_name" && ev.Tid == tidJobs:
			if name, _ := ev.Args["name"].(string); name == "jobs" {
				sawJobsThread = true
			}
		}
	}
	if !sawExec || !sawFault || !sawDispatch || !sawJobsThread {
		t.Fatalf("missing causal events: exec=%v fault=%v dispatch=%v jobsThread=%v",
			sawExec, sawFault, sawDispatch, sawJobsThread)
	}
}
