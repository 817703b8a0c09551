package jobs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// countByName tallies a trace's records by name.
func countByName(fr *causal.Recorder, trace causal.TraceID) map[string]int {
	out := map[string]int{}
	for _, rec := range fr.Records(trace) {
		out[rec.Name]++
	}
	return out
}

// TestQueueWaitObservedOnlyAtDispatch pins the queue-wait semantics under
// backpressure: jobs.queue_wait_ns gets exactly one observation per
// *dispatched* job — a job canceled while queued and a rejected submission
// contribute nothing — and the flight recorder mirrors that rule (the
// queue-wait span appears only in dispatched jobs' traces).
func TestQueueWaitObservedOnlyAtDispatch(t *testing.T) {
	col := telemetry.NewCollector()
	fr := causal.NewRecorder(0)
	br := newBlockingRunner()
	svc := New(Options{Workers: 1, QueueCap: 2, Recorder: col, Flight: fr, Run: br.run})
	defer func() {
		br.releaseAll()
		svc.Close()
	}()
	submit := func(seed uint64) (Job, causal.Context, error) {
		cause := fr.StartTrace(causal.JobAdmission, causal.String("tenant", "t"))
		j, err := svc.SubmitTraced("t", JobSpec{Experiment: "E10", Seed: seed, Scale: "quick"}, cause)
		return j, cause, err
	}

	// Seed 1 occupies the lone worker; seeds 2 and 3 fill the queue to cap.
	a, _, err := submit(1)
	if err != nil {
		t.Fatal(err)
	}
	br.waitStart(t)
	b, _, err := submit(2)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := submit(3)
	if err != nil {
		t.Fatal(err)
	}
	// Seed 4 is over cap: rejected, and its trace records the fault.
	_, rejected, err := submit(4)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap submit = %v, want ErrQueueFull", err)
	}
	// Seed 2 cancels out of the queue: it will never be dispatched.
	if j, ok := svc.Cancel(b.ID); !ok || j.State != Canceled {
		t.Fatalf("cancel queued = %+v, %v", j, ok)
	}

	br.releaseAll()
	waitTerminal(t, svc, a.ID)
	waitTerminal(t, svc, c.ID)

	// Two jobs were dispatched (1 and 3); exactly two waits observed.
	if got := col.Hist(telemetry.JobsQueueWaitNs).Count; got != 2 {
		t.Errorf("queue_wait_ns observations = %d, want 2 (canceled and rejected jobs must not count)", got)
	}

	// The flight recorder tells the same story per trace.
	for _, tc := range []struct {
		name  string
		job   Job
		waits int
	}{{"dispatched", a, 1}, {"canceled-while-queued", b, 0}, {"dispatched-after-cancel", c, 1}} {
		id, err := causal.ParseTraceID(tc.job.TraceID)
		if err != nil {
			t.Fatalf("%s job traceId %q: %v", tc.name, tc.job.TraceID, err)
		}
		names := countByName(fr, id)
		if names[causal.JobQueueWait] != tc.waits {
			t.Errorf("%s job has %d queue_wait records, want %d (%v)",
				tc.name, names[causal.JobQueueWait], tc.waits, names)
		}
	}
	bNames := countByName(fr, mustTrace(t, b.TraceID))
	if bNames[causal.JobCanceled] != 1 || bNames[causal.JobDispatch] != 0 {
		t.Errorf("canceled job trace = %v, want one jobs.canceled and no dispatch", bNames)
	}
	rejNames := countByName(fr, rejected.Trace())
	if rejNames[causal.JobRejected] != 1 || rejNames[causal.JobQueueWait] != 0 {
		t.Errorf("rejected submission trace = %v, want one jobs.rejected and no queue_wait", rejNames)
	}

	// Every recorded queue-wait span closed before its job's dispatch event.
	for _, job := range []Job{a, c} {
		recs := fr.Records(mustTrace(t, job.TraceID))
		var waitEnd, dispatchAt int64
		for _, rec := range recs {
			switch rec.Name {
			case causal.JobQueueWait:
				waitEnd = rec.End
			case causal.JobDispatch:
				dispatchAt = rec.Start
			}
		}
		if waitEnd == 0 || dispatchAt == 0 || dispatchAt < waitEnd {
			t.Errorf("job %s: dispatch at %dns before queue-wait end %dns", job.ID, dispatchAt, waitEnd)
		}
	}
}

func mustTrace(t *testing.T, s string) causal.TraceID {
	t.Helper()
	id, err := causal.ParseTraceID(s)
	if err != nil {
		t.Fatalf("traceId %q: %v", s, err)
	}
	return id
}

// TestCacheHitTraced pins the cache-hit path's causal record: a traced hit
// is answered at admission with a jobs.cache_hit event and no queue-wait,
// dispatch or execute records.
func TestCacheHitTraced(t *testing.T) {
	col := telemetry.NewCollector()
	fr := causal.NewRecorder(0)
	cache := NewCache(4, 0, "", col)
	svc := New(Options{Workers: 1, Cache: cache, BuildSHA: "b", Recorder: col, Flight: fr,
		Run: func(JobSpec, RunContext) ([]byte, error) { return []byte("r"), nil }})
	defer svc.Close()
	spec := JobSpec{Experiment: "E10", Seed: 1, Scale: "quick"}
	cold, err := svc.SubmitTraced("t", spec, fr.StartTrace(causal.JobAdmission))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, cold.ID)
	warm, err := svc.SubmitTraced("t", spec, fr.StartTrace(causal.JobAdmission))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatalf("second submission missed: %+v", warm)
	}
	names := countByName(fr, mustTrace(t, warm.TraceID))
	if names[causal.JobCacheHit] != 1 || names[causal.JobQueueWait] != 0 || names[causal.JobExecute] != 0 {
		t.Errorf("cache-hit trace = %v, want one jobs.cache_hit and no queue/execute records", names)
	}
}

// TestFailedJobAutoDumps pins the failure path: a failing traced job
// records jobs.fail with the fault flag and auto-dumps its trace once to
// the recorder's configured writer.
func TestFailedJobAutoDumps(t *testing.T) {
	fr := causal.NewRecorder(0)
	var dump bytes.Buffer
	fr.SetAutoDump(&dump)
	svc := New(Options{Workers: 1, Flight: fr,
		Run: func(JobSpec, RunContext) ([]byte, error) { return nil, errors.New("boom") }})
	defer svc.Close()
	j, err := svc.SubmitTraced("t", JobSpec{Experiment: "E10", Seed: 1, Scale: "quick"},
		fr.StartTrace(causal.JobAdmission, causal.String("tenant", "t")))
	if err != nil {
		t.Fatal(err)
	}
	j = waitTerminal(t, svc, j.ID)
	if j.State != Failed {
		t.Fatalf("job = %+v", j)
	}
	names := countByName(fr, mustTrace(t, j.TraceID))
	if names[causal.JobFail] != 1 {
		t.Fatalf("failed job trace = %v, want one jobs.fail", names)
	}
	var sawFault bool
	for _, rec := range fr.Records(mustTrace(t, j.TraceID)) {
		if rec.Name == causal.JobFail && rec.Fault {
			sawFault = true
		}
	}
	if !sawFault {
		t.Error("jobs.fail record not marked as a fault")
	}
	out := dump.String()
	if out == "" {
		t.Fatal("failure did not auto-dump the trace")
	}
	for _, want := range []string{causal.JobAdmission, causal.JobQueueWait, causal.JobDispatch, causal.JobFail} {
		if !strings.Contains(out, want) {
			t.Errorf("auto-dump missing %q:\n%s", want, out)
		}
	}
}
