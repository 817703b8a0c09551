package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

func waitTerminal(t *testing.T, s *Service, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch j.State {
		case Done, Failed, Canceled:
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := s.Get(id)
	t.Fatalf("job %s stuck in state %s", id, j.State)
	return Job{}
}

// TestDeterministicCacheHit is the tentpole acceptance pin: submitting the
// same JobSpec twice returns byte-identical results, with the second
// served from cache — hit counter incremented, no worker dispatched — and
// the key includes the build SHA, so a binary change recomputes.
func TestDeterministicCacheHit(t *testing.T) {
	col := telemetry.NewCollector()
	var runs atomic.Int64
	counting := func(spec JobSpec, rc RunContext) ([]byte, error) {
		runs.Add(1)
		return RunExperiment(spec, rc)
	}
	cache := NewCache(16, 0, "", col)
	svc := New(Options{Workers: 1, Cache: cache, BuildSHA: "build-a", Recorder: col, Run: counting})
	defer svc.Close()

	spec := JobSpec{Experiment: "E10", Seed: 5, Scale: "quick"}
	first, err := svc.SubmitTraced("acme", spec, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("cold submission reported a cache hit")
	}
	first = waitTerminal(t, svc, first.ID)
	if first.State != Done || first.Result == "" {
		t.Fatalf("first job = %+v", first)
	}
	// The service's result is the same bytes a direct run renders.
	direct, err := RunExperiment(spec, RunContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(first.Result), direct) {
		t.Errorf("service result diverges from direct run:\n%s---\n%s", first.Result, direct)
	}

	second, err := svc.SubmitTraced("acme", spec, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.State != Done {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.Result != first.Result {
		t.Error("cached result is not byte-identical to the computed one")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("runner invoked %d times, want 1 (no worker dispatched on hit)", got)
	}
	if got := col.Counter(telemetry.JobsCacheHits); got != 1 {
		t.Errorf("cache hit counter = %d, want 1", got)
	}

	// A different build identity misses the shared cache and recomputes —
	// to the same bytes, because the spec pins the computation.
	svcB := New(Options{Workers: 1, Cache: cache, BuildSHA: "build-b", Recorder: col, Run: counting})
	defer svcB.Close()
	third, err := svcB.SubmitTraced("acme", spec, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("new build SHA hit the old build's entry")
	}
	third = waitTerminal(t, svcB, third.ID)
	if third.State != Done || third.Result != first.Result {
		t.Fatalf("recomputed-under-new-build job = %+v", third)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("runner invoked %d times, want 2", got)
	}
}

// TestRestartedServiceServesFromSpill is the cache-persistence
// acceptance pin: a service computes a result into a spill-backed cache,
// shuts down, and a freshly started service over the same directory
// serves the identical result as a cache hit — born Done, no worker
// dispatched, runner never invoked.
func TestRestartedServiceServesFromSpill(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	counting := func(spec JobSpec, _ RunContext) ([]byte, error) {
		runs.Add(1)
		return []byte("computed-" + spec.Experiment), nil
	}
	spec := JobSpec{Experiment: "E10", Seed: 5, Scale: "quick"}

	first := New(Options{Workers: 1, Cache: NewCache(8, 0, dir, nil),
		BuildSHA: "build-a", Run: counting})
	before, err := first.SubmitTraced("acme", spec, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}
	before = waitTerminal(t, first, before.ID)
	if before.State != Done || before.CacheHit {
		t.Fatalf("cold job = %+v", before)
	}
	first.Close()
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner invoked %d times before restart, want 1", got)
	}

	col := telemetry.NewCollector()
	second := New(Options{Workers: 1, Cache: NewCache(8, 0, dir, col),
		BuildSHA: "build-a", Recorder: col, Run: counting})
	defer second.Close()
	after, err := second.SubmitTraced("acme", spec, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if !after.CacheHit || after.State != Done {
		t.Fatalf("restarted service did not serve from warm cache: %+v", after)
	}
	if after.Result != before.Result {
		t.Errorf("restarted result %q != original %q", after.Result, before.Result)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("runner invoked %d times, want 1 (restart must not dispatch a worker)", got)
	}
	if got := col.Counter(telemetry.JobsCacheHits); got != 1 {
		t.Errorf("cache hit counter = %d, want 1", got)
	}
}

// blockingRunner parks every job until released, and records start order.
type blockingRunner struct {
	mu       sync.Mutex
	started  []uint64 // spec seeds, in execution order
	startCh  chan uint64
	release  chan struct{}
	releaser sync.Once
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{startCh: make(chan uint64, 64), release: make(chan struct{})}
}

// releaseAll unparks every current and future run; safe to call twice.
// Tests must call it (usually deferred) before Service.Close, or a test
// failure would leave workers parked and Close waiting on them forever.
func (b *blockingRunner) releaseAll() {
	b.releaser.Do(func() { close(b.release) })
}

func (b *blockingRunner) run(spec JobSpec, _ RunContext) ([]byte, error) {
	b.mu.Lock()
	b.started = append(b.started, spec.Seed)
	b.mu.Unlock()
	b.startCh <- spec.Seed
	<-b.release
	return []byte("result"), nil
}

func (b *blockingRunner) waitStart(t *testing.T) uint64 {
	t.Helper()
	select {
	case seed := <-b.startCh:
		return seed
	case <-time.After(10 * time.Second):
		t.Fatal("no job started")
		return 0
	}
}

// TestBackpressurePerTenant is the backpressure acceptance pin: with queue
// cap Q and saturated workers, submission Q+1 for a tenant is rejected
// with a retryable error while another tenant's submission still lands.
func TestBackpressurePerTenant(t *testing.T) {
	const capQ = 2
	col := telemetry.NewCollector()
	br := newBlockingRunner()
	svc := New(Options{Workers: 1, QueueCap: capQ, Recorder: col, Run: br.run})
	defer func() {
		br.releaseAll()
		svc.Close()
	}()

	// Seed 1 occupies the lone worker; the queue is empty again.
	if _, err := svc.SubmitTraced("noisy", JobSpec{Experiment: "E10", Seed: 1, Scale: "quick"}, causal.Context{}); err != nil {
		t.Fatal(err)
	}
	br.waitStart(t)
	// Fill the tenant's queue to its cap.
	for seed := uint64(2); seed < 2+capQ; seed++ {
		if _, err := svc.SubmitTraced("noisy", JobSpec{Experiment: "E10", Seed: seed, Scale: "quick"}, causal.Context{}); err != nil {
			t.Fatalf("submission below cap rejected: %v", err)
		}
	}
	if got := svc.QueueDepth("noisy"); got != capQ {
		t.Fatalf("queue depth = %d, want %d", got, capQ)
	}
	// Submission Q+1: rejected, retryable, typed.
	_, err := svc.SubmitTraced("noisy", JobSpec{Experiment: "E10", Seed: 99, Scale: "quick"}, causal.Context{})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap submission error = %v, want ErrQueueFull", err)
	}
	if got := col.Counter(telemetry.JobsRejected); got != 1 {
		t.Errorf("rejected counter = %d", got)
	}
	// Another tenant is unaffected by the noisy tenant's full queue.
	if _, err := svc.SubmitTraced("quiet", JobSpec{Experiment: "E10", Seed: 50, Scale: "quick"}, causal.Context{}); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

// TestRoundRobinFairness pins the dispatch order: with tenant A holding a
// deep queue, tenant B's first job runs before A's backlog drains.
func TestRoundRobinFairness(t *testing.T) {
	br := newBlockingRunner()
	svc := New(Options{Workers: 1, QueueCap: 8, Run: br.run})
	defer func() {
		br.releaseAll()
		svc.Close()
	}()

	first, err := svc.SubmitTraced("a", JobSpec{Experiment: "E10", Seed: 1, Scale: "quick"}, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}
	br.waitStart(t) // a/1 on the worker; now build the queues behind it
	ids := []string{first.ID}
	for seed := uint64(2); seed <= 4; seed++ {
		j, err := svc.SubmitTraced("a", JobSpec{Experiment: "E10", Seed: seed, Scale: "quick"}, causal.Context{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	j, err := svc.SubmitTraced("b", JobSpec{Experiment: "E10", Seed: 100, Scale: "quick"}, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, j.ID)

	br.releaseAll()
	for _, id := range ids {
		waitTerminal(t, svc, id)
	}
	br.mu.Lock()
	order := append([]uint64(nil), br.started...)
	br.mu.Unlock()
	// When a/1 was popped the ring held only tenant a, so a's turn pointer
	// still owes it one slot: a/2 runs, then strict alternation puts b/100
	// ahead of the rest of a's backlog.
	want := []uint64{1, 2, 100, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v (tenant b starved)", order, want)
		}
	}
}

func TestCancel(t *testing.T) {
	col := telemetry.NewCollector()
	br := newBlockingRunner()
	svc := New(Options{Workers: 1, QueueCap: 8, Recorder: col, Run: br.run})
	defer func() {
		br.releaseAll()
		svc.Close()
	}()

	running, err := svc.SubmitTraced("t", JobSpec{Experiment: "E10", Seed: 1, Scale: "quick"}, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}
	br.waitStart(t)
	queued, err := svc.SubmitTraced("t", JobSpec{Experiment: "E10", Seed: 2, Scale: "quick"}, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}

	// A queued job cancels out of the queue entirely.
	j, ok := svc.Cancel(queued.ID)
	if !ok || j.State != Canceled {
		t.Fatalf("cancel queued = %+v, %v", j, ok)
	}
	if got := svc.QueueDepth("t"); got != 0 {
		t.Errorf("queue depth after cancel = %d", got)
	}
	// A running job is marked canceled; its run completes in background.
	j, ok = svc.Cancel(running.ID)
	if !ok || j.State != Canceled {
		t.Fatalf("cancel running = %+v, %v", j, ok)
	}
	br.releaseAll()
	j = waitTerminal(t, svc, running.ID)
	if j.State != Canceled || j.Result != "" {
		t.Errorf("canceled running job finished as %+v", j)
	}
	if _, ok := svc.Cancel("j999999"); ok {
		t.Error("cancel of unknown job reported ok")
	}
	if got := col.Counter(telemetry.JobsCanceled); got != 2 {
		t.Errorf("canceled counter = %d", got)
	}
	// The queued job never ran.
	br.mu.Lock()
	ran := len(br.started)
	br.mu.Unlock()
	if ran != 1 {
		t.Errorf("%d jobs ran, want 1 (canceled queued job executed)", ran)
	}
}

func TestCloseCancelsQueuedAndRejects(t *testing.T) {
	br := newBlockingRunner()
	svc := New(Options{Workers: 1, QueueCap: 8, Run: br.run})
	defer br.releaseAll()
	if _, err := svc.SubmitTraced("t", JobSpec{Experiment: "E10", Seed: 1, Scale: "quick"}, causal.Context{}); err != nil {
		t.Fatal(err)
	}
	br.waitStart(t)
	queued, err := svc.SubmitTraced("t", JobSpec{Experiment: "E10", Seed: 2, Scale: "quick"}, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	time.Sleep(20 * time.Millisecond) // let Close mark the queue
	br.releaseAll()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	if j, _ := svc.Get(queued.ID); j.State != Canceled {
		t.Errorf("queued job after Close = %+v", j)
	}
	if _, err := svc.SubmitTraced("t", JobSpec{Experiment: "E10", Seed: 3, Scale: "quick"}, causal.Context{}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v", err)
	}
}

func TestSubmitValidatesAndRequiresTenant(t *testing.T) {
	svc := New(Options{Workers: 1, Run: func(JobSpec, RunContext) ([]byte, error) {
		return nil, nil
	}})
	defer svc.Close()
	if _, err := svc.SubmitTraced("", JobSpec{Experiment: "E10", Scale: "quick"}, causal.Context{}); err == nil {
		t.Error("empty tenant accepted")
	}
	if _, err := svc.SubmitTraced("t", JobSpec{Experiment: "E99", Scale: "quick"}, causal.Context{}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestFailedJobReportsError(t *testing.T) {
	col := telemetry.NewCollector()
	svc := New(Options{Workers: 1, Recorder: col, Run: func(JobSpec, RunContext) ([]byte, error) {
		return nil, errors.New("boom")
	}})
	defer svc.Close()
	j, err := svc.SubmitTraced("t", JobSpec{Experiment: "E10", Seed: 1, Scale: "quick"}, causal.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j = waitTerminal(t, svc, j.ID)
	if j.State != Failed || j.Error != "boom" {
		t.Errorf("failed job = %+v", j)
	}
	if got := col.Counter(telemetry.JobsFailed); got != 1 {
		t.Errorf("failed counter = %d", got)
	}
}

// TestRetirementWindow submits 3×Retain jobs that mix cache hits, queued
// cancels, failures and successes, and pins the retirement policy: once
// more than Retain jobs have finished, they leave in the order they
// finished; queued and running jobs are never retired; List holds exactly
// the rest, in submission order; and a retired ID is told apart from one
// never issued.
func TestRetirementWindow(t *testing.T) {
	const n = 3 * Retain
	spec := func(i int) JobSpec { return JobSpec{Experiment: "E10", Seed: uint64(i), Scale: "quick"} }
	cache := NewCache(n, 0, "", nil)
	for i := 3; i <= n; i += 3 { // every third spec is already cached
		key, err := spec(i).Key("build")
		if err != nil {
			t.Fatal(err)
		}
		cache.Put(key, []byte("cached"))
	}
	tokens := make(chan struct{}, n) // one per run the test lets finish
	svc := New(Options{Workers: 1, QueueCap: n, Cache: cache, BuildSHA: "build",
		Run: func(s JobSpec, _ RunContext) ([]byte, error) {
			<-tokens
			if s.Seed%7 == 0 {
				return nil, errors.New("stub failure")
			}
			return []byte("computed"), nil
		}})
	defer func() {
		close(tokens)
		svc.Close()
	}()

	// held checks that List is exactly the queued and running jobs plus
	// the latest Retain of finished, in submission order. IDs below
	// j999999 sort as their numbers do.
	held := func(finished, live []string) {
		t.Helper()
		if len(finished) > Retain {
			finished = finished[len(finished)-Retain:]
		}
		want := append(slices.Clone(finished), live...)
		slices.Sort(want)
		var got []string
		for _, j := range svc.List() {
			got = append(got, j.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("List holds %d jobs %v..., want %d %v...", len(got), got[:3], len(want), want[:3])
		}
	}

	var finished, dispatched []string // IDs in finish order; IDs the worker runs, in order
	for i := 1; i <= n; i++ {
		j, err := svc.SubmitTraced("t", spec(i), causal.Context{})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i%3 == 0:
			if !j.CacheHit || j.State != Done {
				t.Fatalf("cached spec %d = %+v", i, j)
			}
			finished = append(finished, j.ID)
		case i%6 == 2:
			// The lone worker is parked on job 1, so this one is queued.
			c, ok := svc.Cancel(j.ID)
			if !ok || c.State != Canceled || c.StartedMs != 0 {
				t.Fatalf("cancel of queued %s = %+v, %v", j.ID, c, ok)
			}
			finished = append(finished, j.ID)
		default:
			dispatched = append(dispatched, j.ID)
		}
	}
	// 1536 jobs finished at birth or cancel, so the earliest 512 are
	// retired, while all 1536 queued or running jobs are still held.
	held(finished, dispatched)

	for range dispatched {
		tokens <- struct{}{}
	}
	waitTerminal(t, svc, dispatched[len(dispatched)-1]) // one FIFO, one worker: the last to finish
	finished = append(finished, dispatched...)
	held(finished, nil)

	failures := 0
	for _, j := range svc.List() {
		switch {
		case j.State == Failed && j.Spec.Seed%7 == 0 && j.Error == "stub failure":
			failures++
		case j.State == Done && j.Spec.Seed%7 != 0 && j.Result == "computed":
		default:
			t.Fatalf("retained job %+v", j)
		}
	}
	if failures == 0 {
		t.Error("no failed job in the window")
	}

	for _, id := range []string{finished[0], "j000001"} {
		if _, ok := svc.Get(id); ok || !svc.Retired(id) {
			t.Errorf("%s: held %v, retired %v; want retired", id, ok, svc.Retired(id))
		}
		if _, ok := svc.Cancel(id); ok {
			t.Errorf("cancel of retired %s reported ok", id)
		}
	}
	for _, id := range []string{"j999999", "j1", "j0000001", "job000001", ""} {
		if _, ok := svc.Get(id); ok || svc.Retired(id) {
			t.Errorf("%q: held %v, retired %v; want unknown", id, ok, svc.Retired(id))
		}
	}
}

// TestRetirementConcurrent drives the window from several submitters and
// workers at once while a reader polls Get, Retired and List, for the race
// detector; once every job is done, exactly Retain are held and every
// other issued ID reads as retired.
func TestRetirementConcurrent(t *testing.T) {
	const submitters, each = 4, 3 * Retain / 4
	col := telemetry.NewCollector()
	svc := New(Options{Workers: 4, QueueCap: each, Recorder: col, Run: func(JobSpec, RunContext) ([]byte, error) {
		return []byte("r"), nil
	}})
	defer svc.Close()

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				svc.List()
				svc.Get("j000001")
				svc.Retired("j000001")
			}
		}
	}()
	var wg sync.WaitGroup
	for sub := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				spec := JobSpec{Experiment: "E10", Seed: uint64(sub*each + i), Scale: "quick"}
				if _, err := svc.SubmitTraced(fmt.Sprintf("t%d", sub), spec, causal.Context{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for col.Counter(telemetry.JobsCompleted) < submitters*each {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs completed", col.Counter(telemetry.JobsCompleted), submitters*each)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-stopped

	if got := len(svc.List()); got != Retain {
		t.Errorf("List holds %d jobs, want %d", got, Retain)
	}
	retired := 0
	for seq := 1; seq <= submitters*each; seq++ {
		if svc.Retired(jobID(seq)) {
			retired++
		}
	}
	if want := submitters*each - Retain; retired != want {
		t.Errorf("%d IDs read as retired, want %d", retired, want)
	}
}

// TestRetainedHeapIsBounded pins the point of the window: once it is
// full, more jobs do not grow the live heap. Without retirement every job
// keeps its 1 KiB result and its record, about 1.5 KiB in all.
func TestRetainedHeapIsBounded(t *testing.T) {
	result := bytes.Repeat([]byte("x"), 1024)
	svc := New(Options{Workers: 1, QueueCap: Retain, Run: func(JobSpec, RunContext) ([]byte, error) {
		return result, nil
	}})
	defer svc.Close()
	seed := uint64(0)
	runJobs := func() { // Retain more jobs, all finished on return
		var last Job
		for range Retain {
			seed++
			var err error
			if last, err = svc.SubmitTraced("t", JobSpec{Experiment: "E10", Seed: seed, Scale: "quick"}, causal.Context{}); err != nil {
				t.Fatal(err)
			}
		}
		waitTerminal(t, svc, last.ID) // one FIFO, one worker: the last to finish
	}
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}

	empty := liveHeap()
	runJobs()
	runJobs()
	before := liveHeap()
	runJobs()
	after := liveHeap()
	t.Logf("live heap: empty %d, 2×Retain +%d, 3×Retain +%d", empty, before-empty, after-empty)
	if perJob := float64(after-before) / Retain; perJob >= 256 {
		t.Errorf("live heap grew %.0f B per job from 2×Retain to 3×Retain jobs, want < 256", perJob)
	}
}
