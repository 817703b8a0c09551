package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"broadcastic/internal/jobs"
	"broadcastic/internal/sim"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
	"broadcastic/internal/telemetry/promtext"
	"broadcastic/internal/telemetry/tracelog"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpointMatchesCollector(t *testing.T) {
	col := telemetry.NewCollector()
	col.Count("blackboard.bits", 1234)
	col.Count("netrun.topo.0.wire_bits", 500)
	col.Observe("sim.cell_ns", 2048)
	ts := httptest.NewServer(NewMuxHealth(col, NewBrokerRecorded(nil), nil))
	defer ts.Close()

	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	// The endpoint is promtext.WriteCollector verbatim.
	var want bytes.Buffer
	if _, err := promtext.WriteCollector(&want, col); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Errorf("/metrics diverges from promtext.WriteCollector:\n%s\n---\n%s", body, want.String())
	}
	for _, sample := range []string{"blackboard_bits 1234", "netrun_topo_0_wire_bits 500"} {
		if !strings.Contains(body, sample+"\n") {
			t.Errorf("/metrics missing sample %q:\n%s", sample, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(NewMuxHealth(nil, nil, nil))
	defer ts.Close()
	code, body, hdr := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if h["status"] != "ok" {
		t.Errorf("status = %v", h["status"])
	}
	if g, _ := h["go"].(string); g == "" {
		t.Error("healthz carries no Go version")
	}
}

func TestPprofIndex(t *testing.T) {
	ts := httptest.NewServer(NewMuxHealth(nil, nil, nil))
	defer ts.Close()
	code, body, _ := get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Error("pprof index lists no profiles")
	}
}

func TestBrokerSnapshotAndSubscribe(t *testing.T) {
	b := NewBrokerRecorded(nil)
	b.Publish(RunProgress{RunID: "r1", Experiment: "E1", CellsDone: 1, CellsTotal: 2})
	ch, cancel := b.Subscribe()
	defer cancel()
	b.Publish(RunProgress{RunID: "r1", Experiment: "E1", CellsDone: 2, CellsTotal: 2, Done: true})
	b.Publish(RunProgress{RunID: "r1", Experiment: "E2", CellsDone: 1, CellsTotal: 5})

	snap := b.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d runs, want 2", len(snap))
	}
	// First-publish order, latest state.
	if snap[0].Experiment != "E1" || snap[0].CellsDone != 2 || !snap[0].Done {
		t.Errorf("snapshot[0] = %+v", snap[0])
	}
	if snap[1].Experiment != "E2" {
		t.Errorf("snapshot[1] = %+v", snap[1])
	}

	got := []RunProgress{<-ch, <-ch}
	if got[0].CellsDone != 2 || got[1].Experiment != "E2" {
		t.Errorf("subscriber saw %+v", got)
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Error("channel still open after cancel")
	}
	cancel() // idempotent
}

func TestBrokerSlowSubscriberDoesNotBlock(t *testing.T) {
	b := NewBrokerRecorded(nil)
	_, cancel := b.Subscribe() // never drained
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			b.Publish(RunProgress{RunID: "r", Experiment: "E1", CellsDone: i})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
}

func TestBrokerDroppedUpdatesCounter(t *testing.T) {
	col := telemetry.NewCollector()
	b := NewBrokerRecorded(col)
	ch, cancel := b.Subscribe() // buffered at 64, never drained
	defer cancel()
	const total = 100
	for i := 0; i < total; i++ {
		b.Publish(RunProgress{RunID: "r", Experiment: "E1", CellsDone: i})
	}
	want := int64(total - cap(ch))
	if got := col.Counter(telemetry.ServeRunsDroppedUpdates); got != want {
		t.Errorf("dropped_updates = %d, want %d", got, want)
	}
	// A drained subscriber drops nothing further.
	for range cap(ch) {
		<-ch
	}
	before := col.Counter(telemetry.ServeRunsDroppedUpdates)
	b.Publish(RunProgress{RunID: "r", Experiment: "E1", CellsDone: total})
	if got := col.Counter(telemetry.ServeRunsDroppedUpdates); got != before {
		t.Errorf("drained subscriber still dropped: %d -> %d", before, got)
	}
	// The unrecorded constructor must stay nil-safe.
	b2 := NewBrokerRecorded(nil)
	_, cancel2 := b2.Subscribe()
	defer cancel2()
	for i := 0; i < total; i++ {
		b2.Publish(RunProgress{RunID: "r", Experiment: "E1", CellsDone: i})
	}
}

// TestBrokerKeepsNewestRuns pins the broker's bound: it holds the
// jobs.Retain runs first published most recently, in first-publish order,
// and a forgotten run that publishes again comes back as the newest.
func TestBrokerKeepsNewestRuns(t *testing.T) {
	const extra = 5
	b := NewBrokerRecorded(nil)
	run := func(i int) RunProgress {
		return RunProgress{RunID: fmt.Sprintf("j%06d", i), Experiment: "E1", CellsTotal: 1}
	}
	for i := range jobs.Retain + extra {
		b.Publish(run(i))
	}
	// Updating a held run keeps its place.
	final := run(extra)
	final.CellsDone, final.Done = 1, true
	b.Publish(final)

	snap := b.Snapshot()
	if len(snap) != jobs.Retain {
		t.Fatalf("snapshot holds %d runs, want %d", len(snap), jobs.Retain)
	}
	for i, p := range snap {
		if p.RunID != run(i+extra).RunID {
			t.Fatalf("snapshot[%d] = %s, want %s", i, p.RunID, run(i+extra).RunID)
		}
	}
	if snap[0] != final {
		t.Errorf("snapshot[0] = %+v, want the update %+v", snap[0], final)
	}

	b.Publish(run(0))
	snap = b.Snapshot()
	if len(snap) != jobs.Retain || snap[0].RunID != run(extra+1).RunID || snap[len(snap)-1].RunID != run(0).RunID {
		t.Errorf("after republishing a forgotten run: %d runs, first %s, last %s",
			len(snap), snap[0].RunID, snap[len(snap)-1].RunID)
	}
}

// TestRunsEndOnFinalRecord is the /runs regression pin: with two sweep
// workers, the progress call for the second-to-last cell is delayed so
// that, unless the sweep serializes its calls, the last cell's record is
// published first and the stale one replaces it.
func TestRunsEndOnFinalRecord(t *testing.T) {
	var e9 sim.Experiment
	for _, e := range sim.Experiments() {
		if e.ID == "E9" {
			e9 = e
		}
	}
	render := func(cfg sim.Config) string {
		t.Helper()
		tbl, err := e9.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	base := sim.Config{Seed: 1, Scale: sim.Quick, Workers: 2}
	ref := render(base)

	b := NewBrokerRecorded(nil)
	publish := b.ProgressFunc("E9-seed1", "E9", nil)
	cfg := base
	cfg.Progress = func(done, total int) {
		if done == total-1 {
			time.Sleep(50 * time.Millisecond)
		}
		publish(done, total)
	}
	if got := render(cfg); got != ref {
		t.Errorf("table with the progress hook differs:\n%s---\n%s", got, ref)
	}
	snap := b.Snapshot()
	if len(snap) != 1 || !snap[0].Done || snap[0].CellsDone != snap[0].CellsTotal {
		t.Fatalf("/runs after the run = %+v, want its final record", snap)
	}
}

func TestProgressFunc(t *testing.T) {
	b := NewBrokerRecorded(nil)
	col := telemetry.NewCollector()
	col.Count(telemetry.BlackboardBits, 100)
	col.Count(telemetry.NetrunWireBits, 40)
	hook := b.ProgressFunc("E9-seed1", "E9", col)
	hook(1, 4)
	hook(4, 4)
	snap := b.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	p := snap[0]
	if p.RunID != "E9-seed1" || p.Experiment != "E9" {
		t.Errorf("identity = %q/%q", p.RunID, p.Experiment)
	}
	if !p.Done || p.CellsDone != 4 || p.CellsTotal != 4 {
		t.Errorf("final update = %+v", p)
	}
	if p.Bits != 140 {
		t.Errorf("bits = %d, want 140", p.Bits)
	}
	if p.EtaMs != 0 {
		t.Errorf("done run has eta %d", p.EtaMs)
	}
	// Nil collector must not panic and reports zero bits.
	b2 := NewBrokerRecorded(nil)
	b2.ProgressFunc("x", "E1", nil)(1, 2)
	if got := b2.Snapshot()[0].Bits; got != 0 {
		t.Errorf("nil-collector bits = %d", got)
	}
}

func TestRunsSnapshotNDJSON(t *testing.T) {
	b := NewBrokerRecorded(nil)
	b.Publish(RunProgress{RunID: "r1", Experiment: "E1", CellsDone: 2, CellsTotal: 2, Done: true})
	ts := httptest.NewServer(NewMuxHealth(nil, b, nil))
	defer ts.Close()
	code, body, hdr := get(t, ts.URL+"/runs")
	if code != http.StatusOK {
		t.Fatalf("GET /runs = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var p RunProgress
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &p); err != nil {
		t.Fatalf("snapshot line is not JSON: %v (%q)", err, body)
	}
	if p.RunID != "r1" || !p.Done {
		t.Errorf("snapshot = %+v", p)
	}
}

func TestRunsFollowStreamsUpdates(t *testing.T) {
	b := NewBrokerRecorded(nil)
	b.Publish(RunProgress{RunID: "r1", Experiment: "E1", CellsDone: 1, CellsTotal: 3})
	ts := httptest.NewServer(NewMuxHealth(nil, b, nil))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/runs?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	readLine := func() RunProgress {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var p RunProgress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("stream line is not JSON: %v (%q)", err, sc.Text())
		}
		return p
	}

	if p := readLine(); p.CellsDone != 1 {
		t.Errorf("snapshot line = %+v", p)
	}
	b.Publish(RunProgress{RunID: "r1", Experiment: "E1", CellsDone: 3, CellsTotal: 3, Done: true})
	if p := readLine(); p.CellsDone != 3 || !p.Done {
		t.Errorf("streamed update = %+v", p)
	}
}

func TestRunsSSE(t *testing.T) {
	b := NewBrokerRecorded(nil)
	b.Publish(RunProgress{RunID: "r1", Experiment: "E1", CellsDone: 1, CellsTotal: 1, Done: true})
	ts := httptest.NewServer(NewMuxHealth(nil, b, nil))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/runs", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no SSE frame: %v", sc.Err())
	}
	line := sc.Text()
	if !strings.HasPrefix(line, "data: ") {
		t.Fatalf("SSE frame = %q", line)
	}
	var p RunProgress
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
		t.Fatalf("SSE payload is not JSON: %v", err)
	}
	if p.RunID != "r1" {
		t.Errorf("payload = %+v", p)
	}
}

func TestServerStartShutdown(t *testing.T) {
	srv, err := Start("127.0.0.1:0", NewMuxHealth(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	code, _, _ := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz over real listener = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownEndsFollowStream pins graceful shutdown with a live
// /runs?follow=1 subscriber mid-stream: Shutdown must end the stream and
// return promptly (the handler's request context derives from the
// server's base context), leaving no serveRuns goroutine behind.
func TestShutdownEndsFollowStream(t *testing.T) {
	broker := NewBrokerRecorded(nil)
	broker.Publish(RunProgress{RunID: "r1", Experiment: "E1", CellsDone: 1, CellsTotal: 3})
	srv, err := Start("127.0.0.1:0", NewMuxHealth(nil, broker, nil))
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Get("http://" + srv.Addr() + "/runs?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() { // snapshot line: the stream is live
		t.Fatalf("no snapshot line: %v", sc.Err())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with live stream: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("shutdown took %v; the stream held it hostage", elapsed)
	}
	// The client's stream ends rather than hanging.
	for sc.Scan() {
	}
	client.CloseIdleConnections()

	// No leaked handler goroutine: the count settles back to the
	// pre-connection baseline (with slack for runtime/test goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines: %d, baseline %d; stacks:\n%s",
		runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
}

// TestObservedExperimentEndToEnd is the acceptance pin for the
// observability invariant: an experiment run with the full observability plane attached
// — shared Collector, causal trace teeing a Chrome-trace sink, progress
// hook, live HTTP server — renders a table byte-identical to a bare run, and the /metrics
// exposition agrees exactly with the final Collector snapshot
// (blackboard_bits and every netrun_topo_*_wire_bits series included).
func TestObservedExperimentEndToEnd(t *testing.T) {
	exps := sim.Experiments()
	var e20 sim.Experiment
	for _, e := range exps {
		if e.ID == "E20" {
			e20 = e
		}
	}
	if e20.Run == nil {
		t.Fatal("E20 not in registry")
	}
	base := sim.Config{Seed: 7, Scale: sim.Quick}

	// Reference: nothing attached.
	refTbl, err := e20.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := refTbl.Render(&ref); err != nil {
		t.Fatal(err)
	}

	// Observed: collector + causal trace with a Perfetto sink + progress
	// hook + live server.
	col := telemetry.NewCollector()
	broker := NewBrokerRecorded(nil)
	ts := httptest.NewServer(NewMuxHealth(col, broker, nil))
	defer ts.Close()
	sink := tracelog.New("E20-seed7")
	cfg := base
	cfg.Recorder = col
	cfg.Causal = causal.NewRecorder(0).StartTraceSink(sink, causal.ExperimentRoot,
		causal.String("experiment", "E20"), causal.String("runId", sink.RunID()))
	cfg.Progress = broker.ProgressFunc("E20-seed7", "E20", col)
	obsTbl, err := e20.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var obs bytes.Buffer
	if err := obsTbl.Render(&obs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.Bytes(), obs.Bytes()) {
		t.Fatalf("observed run diverged from bare run:\n%s\n---\n%s", ref.Bytes(), obs.Bytes())
	}

	// /metrics must agree exactly with the final collector state.
	_, body, _ := get(t, ts.URL+"/metrics")
	sampleValue := func(name string) (float64, bool) {
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				var v float64
				if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
					return v, true
				}
			}
		}
		return 0, false
	}
	ex := col.Export()
	checked := 0
	for _, c := range ex.Counters {
		name := promtext.SanitizeName(c.Name)
		if name != "blackboard_bits" &&
			!(strings.HasPrefix(name, "netrun_topo_") && strings.HasSuffix(name, "_wire_bits")) {
			continue
		}
		got, ok := sampleValue(name)
		if !ok {
			t.Errorf("/metrics has no %s sample", name)
			continue
		}
		if got != float64(c.Value) {
			t.Errorf("%s = %g on /metrics, collector has %d", name, got, c.Value)
		}
		checked++
	}
	if checked < 2 {
		t.Fatalf("only %d bit series checked; expected blackboard_bits plus per-link wire bits", checked)
	}

	// The progress stream saw the run to completion.
	snap := broker.Snapshot()
	if len(snap) != 1 || !snap[0].Done || snap[0].CellsDone != snap[0].CellsTotal {
		t.Fatalf("progress snapshot = %+v", snap)
	}
	if snap[0].Bits == 0 {
		t.Error("progress reported zero bits for an instrumented netrun experiment")
	}

	// And the trace is parseable with events on it.
	var traceBuf bytes.Buffer
	if _, err := sink.WriteTo(&traceBuf); err != nil {
		t.Fatal(err)
	}
	var tr tracelog.Trace
	if err := json.Unmarshal(traceBuf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	hops := 0
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "X" && ev.Name == causal.NetrunHop {
			hops++
		}
	}
	if hops == 0 {
		t.Error("trace recorded no netrun.hop spans")
	}
}
