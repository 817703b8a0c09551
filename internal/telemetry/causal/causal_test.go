package causal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"broadcastic/internal/telemetry"
)

func TestTraceIDStringParseRoundTrip(t *testing.T) {
	for _, id := range []TraceID{1, 0xdead, 1 << 63, ^TraceID(0)} {
		s := id.String()
		if len(s) != 16 {
			t.Errorf("TraceID(%d).String() = %q, want 16 hex digits", id, s)
		}
		got, err := ParseTraceID(s)
		if err != nil || got != id {
			t.Errorf("ParseTraceID(%q) = %v, %v; want %v", s, got, err, id)
		}
	}
	// Short forms are accepted (the counter mints small IDs).
	if got, err := ParseTraceID("a"); err != nil || got != 10 {
		t.Errorf("ParseTraceID(\"a\") = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "0000000000000000", "xyz", "12345678901234567", "-1"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestDisabledContextIsInert(t *testing.T) {
	var c Context
	if c.Enabled() || c.Trace() != 0 || c.Span() != 0 {
		t.Fatal("zero Context not disabled")
	}
	// None of these may panic or record anywhere.
	sp := c.StartSpan(nil, "x", Int("i", 1))
	sp.End()
	sub := sp.Context()
	if sub.Enabled() {
		t.Error("child of disabled span enabled")
	}
	c.Event("e")
	c.Fault("f")
	c.Fail("boom")
	if c.WithSink(nil).Enabled() {
		t.Error("WithSink enabled a disabled context")
	}
}

// nopRecorder is a live metrics Recorder that discards everything.
type nopRecorder struct{}

func (nopRecorder) Count(string, int64)     {}
func (nopRecorder) Observe(string, float64) {}

// TestSpanEndReturnsRecordedDuration pins the one-stopwatch contract: a
// recorded span's End returns exactly the End − Start of its record; with
// a disabled context the span is timed only for a metrics Recorder, and
// with neither it returns 0.
func TestSpanEndReturnsRecordedDuration(t *testing.T) {
	r := NewRecorder(256)
	c := r.StartTrace("root")
	sp := c.StartSpan(nil, "s")
	time.Sleep(time.Millisecond)
	d := sp.End()
	var rec Record
	for _, x := range r.Records(c.Trace()) {
		if x.Name == "s" {
			rec = x
		}
	}
	if d != time.Duration(rec.End-rec.Start) || d < time.Millisecond {
		t.Errorf("End() = %v, record spans %d ns", d, rec.End-rec.Start)
	}

	var off Context
	timed := off.StartSpan(nopRecorder{}, "s")
	time.Sleep(time.Millisecond)
	if d := timed.End(); d < time.Millisecond {
		t.Errorf("metrics-only span End() = %v, want >= 1ms", d)
	}
	if d := off.StartSpan(nil, "s").End(); d != 0 {
		t.Errorf("inert span End() = %v, want 0", d)
	}
}

// TestUnrecordedSpanAllocatesNothing: without a recording context a span
// allocates nothing, timed for a metrics Recorder or not, attributes
// included — the record copies its attrs, so the caller's never escape.
func TestUnrecordedSpanAllocatesNothing(t *testing.T) {
	var off Context
	for name, m := range map[string]telemetry.Recorder{"inert": nil, "timed": nopRecorder{}} {
		allocs := testing.AllocsPerRun(100, func() {
			sp := off.StartSpan(m, NetrunHop, String("link", "0"), String("kind", "msg"))
			sp.End()
		})
		if allocs != 0 {
			t.Errorf("%s span allocates %v per start/end, want 0", name, allocs)
		}
	}
}

func TestStartTraceAndParentLinks(t *testing.T) {
	r := NewRecorder(256)
	c := r.StartTrace(JobAdmission, String("tenant", "acme"))
	if !c.Enabled() || c.Trace() == 0 || c.Span() == 0 {
		t.Fatalf("StartTrace context = %+v", c)
	}
	queue := c.StartSpan(nil, JobQueueWait)
	queue.End()
	exec := c.StartSpan(nil, JobExecute)
	hopCtx := exec.Context()
	if hopCtx.Trace() != c.Trace() || hopCtx.Span() != exec.ID() {
		t.Fatalf("Span.Context() trace/span = %v/%v, want %v/%v",
			hopCtx.Trace(), hopCtx.Span(), c.Trace(), exec.ID())
	}
	hopCtx.Event(NetrunRetry, Int("attempt", 1))
	exec.End()

	recs := r.Records(c.Trace())
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4: %+v", len(recs), recs)
	}
	byName := map[string]Record{}
	for _, rec := range recs {
		if rec.Trace != c.Trace() {
			t.Errorf("record %q on trace %v, want %v", rec.Name, rec.Trace, c.Trace())
		}
		byName[rec.Name] = rec
	}
	root := byName[JobAdmission]
	if root.Kind != KindEvent || root.Parent != 0 || root.Span != c.Span() {
		t.Errorf("root record = %+v", root)
	}
	if got := byName[JobQueueWait]; got.Kind != KindSpan || got.Parent != root.Span {
		t.Errorf("queue span = %+v, want parent %v", got, root.Span)
	}
	execRec := byName[JobExecute]
	if execRec.Parent != root.Span || execRec.End < execRec.Start {
		t.Errorf("execute span = %+v", execRec)
	}
	if got := byName[NetrunRetry]; got.Parent != execRec.Span {
		t.Errorf("retry event parent = %v, want execute span %v", got.Parent, execRec.Span)
	}
}

func TestTwoTracesStayDistinct(t *testing.T) {
	r := NewRecorder(256)
	a := r.StartTrace("root-a")
	b := r.StartTrace("root-b")
	if a.Trace() == b.Trace() {
		t.Fatal("two traces share an ID")
	}
	a.Event("only-a")
	b.Event("only-b")
	for _, rec := range r.Records(a.Trace()) {
		if rec.Name == "only-b" || rec.Name == "root-b" {
			t.Errorf("trace-a filter returned %q", rec.Name)
		}
	}
	if got := len(r.Records(a.Trace())); got != 2 {
		t.Errorf("trace a holds %d records, want 2", got)
	}
	if got := len(r.Records(0)); got != 4 {
		t.Errorf("unfiltered dump holds %d records, want 4", got)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRecorder(64) // small: per-shard rings hit their floor of 16
	c := r.StartTrace("root")
	_, _, capacity := r.Stats()
	for i := 0; i < 10*capacity; i++ {
		c.Event("spam", Int("i", i))
	}
	held, appended, _ := r.Stats()
	if held != capacity {
		t.Errorf("held = %d, want full capacity %d", held, capacity)
	}
	if want := int64(10*capacity + 1); appended != want {
		t.Errorf("appended = %d, want %d", appended, want)
	}
	// Everything held is recent: the oldest survivor is newer than the
	// records evicted before it (per shard, oldest evicts first).
	recs := r.Records(0)
	if len(recs) != capacity {
		t.Fatalf("Records returned %d, want %d", len(recs), capacity)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatalf("records not sorted by start at %d", i)
		}
	}
}

func TestDumpNDJSON(t *testing.T) {
	r := NewRecorder(256)
	c := r.StartTrace(JobAdmission, String("tenant", "t1"))
	sp := c.StartSpan(nil, JobExecute, String("job", "j1"))
	sp.Context().Fault(NetrunFault, String("fault", "drop"))
	sp.End()

	var buf bytes.Buffer
	n, err := r.Dump(&buf, c.Trace())
	if err != nil || n != 3 {
		t.Fatalf("Dump = %d, %v", n, err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("dump has %d lines, want 3", len(lines))
	}
	root := lines[0]
	if root["name"] != JobAdmission || root["trace"] != c.Trace().String() {
		t.Errorf("root line = %v", root)
	}
	if attrs, _ := root["attrs"].(map[string]any); attrs["tenant"] != "t1" {
		t.Errorf("root attrs = %v", root["attrs"])
	}
	var sawFault, sawSpan bool
	for _, m := range lines {
		if m["name"] == NetrunFault {
			sawFault = m["fault"] == true && m["kind"] == "event"
			if m["parent"] == nil || m["parent"] == "" {
				t.Error("fault event lost its parent link")
			}
		}
		if m["name"] == JobExecute {
			sawSpan = m["kind"] == "span" && m["endNs"] != nil
		}
	}
	if !sawFault || !sawSpan {
		t.Errorf("dump missing fault event (%v) or completed span (%v)", sawFault, sawSpan)
	}
}

func TestAutoDumpOncePerTrace(t *testing.T) {
	r := NewRecorder(256)
	var buf bytes.Buffer
	r.SetAutoDump(&buf)
	c := r.StartTrace("root")
	c.Fail(JobFail, String("error", "boom"))
	first := buf.Len()
	if first == 0 {
		t.Fatal("Fail did not auto-dump")
	}
	c.Fail(NetrunCrash, String("error", "again"))
	if buf.Len() != first {
		t.Error("second Fail on the same trace dumped again")
	}
	if !strings.Contains(buf.String(), JobFail) {
		t.Errorf("auto-dump missing the failure record: %s", buf.String())
	}
	// A different trace still dumps.
	d := r.StartTrace("root-2")
	d.Fail(JobFail)
	if buf.Len() == first {
		t.Error("second trace's failure did not dump")
	}
}

type captureSink struct {
	mu   sync.Mutex
	recs []Record
}

func (s *captureSink) CausalEvent(r Record) {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

func TestWithSinkTeesRecords(t *testing.T) {
	r := NewRecorder(256)
	sink := &captureSink{}
	c := r.StartTrace("root").WithSink(sink)
	c.Event("e1")
	sp := c.StartSpan(nil, "s1")
	sp.End()
	sp.Context().Fault("f1")
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.recs) != 3 {
		t.Fatalf("sink saw %d records, want 3", len(sink.recs))
	}
	// Emission order: event, span (at End), then the fault emitted after.
	if sink.recs[0].Name != "e1" || sink.recs[1].Name != "s1" || sink.recs[2].Name != "f1" {
		t.Errorf("sink order = %v, %v, %v", sink.recs[0].Name, sink.recs[1].Name, sink.recs[2].Name)
	}
}

// TestRecorderHammer drives the sharded ring from many goroutines at once —
// appends, trace mints, snapshots, stats and auto-dumps racing — and is the
// CI -race pin for the flight recorder's locking discipline.
func TestRecorderHammer(t *testing.T) {
	r := NewRecorder(1024)
	r.SetAutoDump(&bytes.Buffer{}) // exercise the dump path too
	const (
		writers   = 8
		perWriter = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.StartTrace("hammer", Int("writer", w))
			for i := 0; i < perWriter; i++ {
				switch i % 4 {
				case 0:
					c.Event("e", Int("i", i))
				case 1:
					sp := c.StartSpan(nil, "s", Int("i", i))
					sp.Context().Event("child")
					sp.End()
				case 2:
					c.Fault("f")
				default:
					c.Fail("fatal") // dedup means only the first dumps
				}
			}
		}(w)
	}
	// Concurrent readers: snapshots and stats while writers spin.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Records(0)
				r.Stats()
			}
		}
	}()
	wg.Wait()
	close(done)
	held, appended, capacity := r.Stats()
	if held != capacity {
		t.Errorf("held = %d, want %d (hammer should fill the ring)", held, capacity)
	}
	if appended < int64(writers*perWriter) {
		t.Errorf("appended = %d, want >= %d", appended, writers*perWriter)
	}
}

// Span returns the current parent span ID (0 when disabled).
func (c Context) Span() SpanID { return c.span }

// WithSink returns a copy of the context that additionally tees every
// record to sink. A nil sink removes the tee; a disabled context stays
// disabled.
func (c Context) WithSink(sink EventSink) Context {
	c.sink = sink
	return c
}

// ID returns the span's ID (0 for an unrecorded span).
func (s Span) ID() SpanID { return s.id }
