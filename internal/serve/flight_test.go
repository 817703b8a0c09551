package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"broadcastic/internal/jobs"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// flightLine is the NDJSON dump shape the endpoint serves.
type flightLine struct {
	Trace  string            `json:"trace"`
	Span   string            `json:"span"`
	Parent string            `json:"parent"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	Start  int64             `json:"startNs"`
	End    int64             `json:"endNs"`
	Fault  bool              `json:"fault"`
	Attrs  map[string]string `json:"attrs"`
}

func fetchTrace(t *testing.T, url, traceID string) []flightLine {
	t.Helper()
	resp, err := http.Get(url + "/debug/flightrecorder?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flightrecorder = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var lines []flightLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l flightLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint(len(lines)); resp.Header.Get("X-Flightrecorder-Records") != want {
		t.Errorf("X-Flightrecorder-Records = %q, want %q",
			resp.Header.Get("X-Flightrecorder-Records"), want)
	}
	return lines
}

// TestFlightRecorderCausalChain is the tentpole acceptance pin: a faulted
// E20 job submitted over HTTP yields a flight-recorder dump that
// reconstructs the full causal chain — admission, queue wait, dispatch,
// execute, sweep cells, netrun hops and injected-fault instants — under
// the one trace ID the job snapshot reports; an E4 job does the same for
// estimator-shard spans.
func TestFlightRecorderCausalChain(t *testing.T) {
	col := telemetry.NewCollector()
	fr := causal.NewRecorder(0)
	svc := jobs.New(jobs.Options{Workers: 1, Recorder: col, Flight: fr})
	defer svc.Close()
	mux := NewMuxHealth(col, NewBrokerRecorded(nil), nil)
	AttachJobs(mux, svc)
	AttachFlightRecorder(mux, fr)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// A small faulted E20: one (n, k) cell per fault row keeps the trace
	// comfortably inside the ring while still exercising hops and faults.
	spec := `{"experiment":"E20","seed":1,"scale":"quick","ns":[16],"ks":[4],"faults":"drop=0.2"}`
	code, job, _ := postJob(t, ts.URL, "acme", spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", code)
	}
	if job.TraceID == "" {
		t.Fatal("traced submission has no traceId")
	}
	done := pollDone(t, ts.URL, job.ID)
	if done.TraceID != job.TraceID {
		t.Errorf("traceId changed across snapshots: %q -> %q", job.TraceID, done.TraceID)
	}

	lines := fetchTrace(t, ts.URL, job.TraceID)
	spans := map[string]flightLine{} // name -> first record seen
	counts := map[string]int{}
	for _, l := range lines {
		if l.Trace != job.TraceID {
			t.Fatalf("filtered dump contains foreign trace %q", l.Trace)
		}
		counts[l.Name]++
		if _, seen := spans[l.Name]; !seen {
			spans[l.Name] = l
		}
	}
	for _, want := range []string{
		causal.JobAdmission, causal.JobQueueWait, causal.JobDispatch,
		causal.JobExecute, causal.JobDone, causal.SimCell,
		causal.NetrunHop, causal.NetrunFault,
	} {
		if counts[want] == 0 {
			t.Errorf("trace missing %q records (have %v)", want, counts)
		}
	}
	// Parent links reconstruct the chain: everything in the job layer hangs
	// off the admission root; engine records hang off the execute span.
	root := spans[causal.JobAdmission]
	if root.Parent != "" {
		t.Errorf("admission root has parent %q", root.Parent)
	}
	if root.Attrs["tenant"] != "acme" || root.Attrs["experiment"] != "E20" {
		t.Errorf("admission attrs = %v", root.Attrs)
	}
	exec := spans[causal.JobExecute]
	for name, wantParent := range map[string]string{
		causal.JobQueueWait: root.Span,
		causal.JobDispatch:  root.Span,
		causal.JobExecute:   root.Span,
		causal.JobDone:      root.Span,
		causal.SimCell:      exec.Span,
		causal.NetrunHop:    exec.Span,
		causal.NetrunFault:  exec.Span,
	} {
		if got := spans[name].Parent; got != wantParent {
			t.Errorf("%s parent = %q, want %q", name, got, wantParent)
		}
	}
	for _, l := range lines {
		if l.Name == causal.NetrunFault && !l.Fault {
			t.Error("netrun.fault record not flagged as a fault")
		}
		if l.Kind == "span" && l.End < l.Start {
			t.Errorf("span %s ends before it starts", l.Name)
		}
	}
	// Any retransmissions parent to the hop they repaired.
	for _, l := range lines {
		if l.Name != causal.NetrunRetry {
			continue
		}
		if l.Attrs["attempt"] == "" {
			t.Errorf("retry record missing attempt attr: %+v", l)
		}
	}

	// An estimator experiment records per-shard spans under its own trace.
	code, ejob, _ := postJob(t, ts.URL, "acme", `{"experiment":"E4","seed":1,"scale":"quick"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs (E4) = %d", code)
	}
	pollDone(t, ts.URL, ejob.ID)
	var shards int
	for _, l := range fetchTrace(t, ts.URL, ejob.TraceID) {
		if l.Name == causal.CoreShard {
			shards++
			if eng := l.Attrs["engine"]; eng != "ir" && eng != "scalar" {
				t.Errorf("shard span engine attr = %q", eng)
			}
		}
	}
	if shards == 0 {
		t.Error("E4 trace has no core.cic.shard spans")
	}

	// The two jobs' traces are distinct and the unfiltered dump holds both.
	if ejob.TraceID == job.TraceID {
		t.Error("two jobs share one trace ID")
	}
	code, body, _ := get(t, ts.URL+"/debug/flightrecorder")
	if code != http.StatusOK {
		t.Fatalf("unfiltered dump = %d", code)
	}
	if !strings.Contains(body, job.TraceID) || !strings.Contains(body, ejob.TraceID) {
		t.Error("unfiltered dump missing a trace")
	}
	// Malformed filters are rejected.
	if code, _, _ := get(t, ts.URL+"/debug/flightrecorder?trace=xyz"); code != http.StatusBadRequest {
		t.Errorf("malformed trace filter = %d, want 400", code)
	}
}

// TestMetricsFleetWideOnly pins what /metrics says about the job service
// while two tenants have jobs queued: fleet-wide series only, naming no
// tenant. Which tenant queued what is GET /jobs's answer, and each job's
// admission record in the flight recorder carries its tenant.
func TestMetricsFleetWideOnly(t *testing.T) {
	col := telemetry.NewCollector()
	release := make(chan struct{})
	svc := jobs.New(jobs.Options{
		Workers: 1, QueueCap: 4, Recorder: col,
		Cache: jobs.NewCache(4, 0, "", col),
		Run: func(jobs.JobSpec, jobs.RunContext) ([]byte, error) {
			<-release
			return []byte("x"), nil
		},
	})
	defer func() {
		close(release)
		svc.Close()
	}()
	mux := NewMuxHealth(col, NewBrokerRecorded(nil), nil)
	AttachJobs(mux, svc)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// acme's first job occupies the worker; one more acme job and one
	// globex job sit queued.
	for i, tenant := range []string{"acme", "acme", "globex"} {
		spec := fmt.Sprintf(`{"experiment":"E10","seed":%d,"scale":"quick"}`, i+1)
		if code, _, _ := postJob(t, ts.URL, tenant, spec); code != http.StatusAccepted {
			t.Fatalf("POST %d = %d", i, code)
		}
	}
	// The first job's queue wait is observed once the worker has taken it.
	for deadline := time.Now().Add(10 * time.Second); col.Hist(telemetry.JobsQueueWaitNs).Count != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first job was never dispatched")
		}
	}

	_, body, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"jobs_submitted 3\n",
		"jobs_queue_depth 2\n",
		"# TYPE jobs_queue_wait_ns histogram\n",
		"jobs_queue_wait_ns_count 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	for _, name := range []string{"tenant", "acme", "globex"} {
		if strings.Contains(body, name) {
			t.Errorf("/metrics names %q:\n%s", name, body)
		}
	}
}

// TestHealthzReadiness pins the liveness/readiness split: /healthz serves
// 503 with ready:false until the service reports ready and again once
// draining begins, while ?live=1 stays 200 throughout.
func TestHealthzReadiness(t *testing.T) {
	health := &Health{}
	ts := httptest.NewServer(NewMuxHealth(nil, nil, health))
	defer ts.Close()

	check := func(wantCode int, wantReady bool) {
		t.Helper()
		code, body, _ := get(t, ts.URL+"/healthz")
		if code != wantCode {
			t.Fatalf("GET /healthz = %d, want %d", code, wantCode)
		}
		var h map[string]any
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("healthz not JSON: %v", err)
		}
		if h["ready"] != wantReady {
			t.Errorf("ready = %v, want %v", h["ready"], wantReady)
		}
		// Liveness never depends on readiness.
		if code, _, _ := get(t, ts.URL+"/healthz?live=1"); code != http.StatusOK {
			t.Errorf("GET /healthz?live=1 = %d, want 200", code)
		}
	}
	check(http.StatusServiceUnavailable, false) // before startup completes
	health.SetReady(true)
	check(http.StatusOK, true) // serving
	health.SetReady(false)
	check(http.StatusServiceUnavailable, false) // draining

	// A nil Health stays always-ready for embedded/test uses.
	plain := httptest.NewServer(NewMuxHealth(nil, nil, nil))
	defer plain.Close()
	if code, _, _ := get(t, plain.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("nil-Health /healthz = %d, want 200", code)
	}
}
