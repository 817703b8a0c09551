package jobs

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"broadcastic/internal/pool"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// State is a job's lifecycle phase.
type State string

// Job states. Queued and Running are transient; the rest are terminal.
// A Canceled job whose run was already in flight finishes in the
// background (the engines have no preemption points) and still populates
// the cache — the computation is valid, the client just stopped wanting it.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// ErrQueueFull is the backpressure signal: the submitting tenant's queue
// is at capacity. It is retryable — the HTTP layer maps it to 429 with a
// Retry-After hint — and scoped per tenant, so one tenant saturating its
// queue never blocks another's submissions.
var ErrQueueFull = errors.New("jobs: tenant queue full, retry later")

// ErrClosed reports a submission to a service that has been shut down.
var ErrClosed = errors.New("jobs: service closed")

// RunContext bundles everything a Runner receives beyond the spec: the
// metrics collector, the progress hook, and the causal context whose
// parent is the job's execute span. All fields may be zero.
type RunContext struct {
	Recorder *telemetry.Collector
	Progress func(done, total int)
	Causal   causal.Context
}

// Runner executes one validated spec and returns the rendered result
// bytes. Options.Run defaults to RunExperiment; tests substitute slow or
// counting runners.
type Runner func(spec JobSpec, rc RunContext) ([]byte, error)

// Options configures a Service.
type Options struct {
	// Workers is the fleet size (0 = one per CPU, via pool.Workers).
	// Each worker runs at most one job at a time; the jobs themselves
	// parallelize their sweeps on the shared pool machinery.
	Workers int
	// QueueCap bounds each tenant's FIFO queue (0 = DefaultQueueCap).
	QueueCap int
	// Cache, when non-nil, serves and stores results content-addressed.
	Cache *Cache
	// BuildSHA keys the cache to a binary identity ("" = BuildSHA()).
	BuildSHA string
	// Recorder receives job counters and per-job spans (nil ok).
	Recorder *telemetry.Collector
	// Progress, when non-nil, builds the per-job progress hook handed to
	// the runner — the daemon wires serve.Broker.ProgressFunc here so
	// jobs stream on /runs without this package importing the HTTP layer.
	Progress func(jobID, experiment string) func(done, total int)
	// Flight, when non-nil, is the causal flight recorder the service's
	// traces live in. SubmitTraced contexts must be minted from it (the
	// HTTP layer does so via Service.Flight at admission).
	Flight *causal.Recorder
	// Run executes specs (nil = RunExperiment).
	Run Runner
}

// DefaultQueueCap is the per-tenant queue bound when Options.QueueCap is 0.
const DefaultQueueCap = 16

// Retain is the retirement window: how many finished jobs the service
// keeps. A job enters the window when it reaches its final state — at
// birth for a cache hit, when its worker returns for a run (one canceled
// while running included), at Cancel for a queued job and at Close for
// one still queued. Once more than Retain have, the job that finished
// earliest leaves the service, and Get, Cancel and List no longer see it;
// Retired still tells its ID from one never issued. Queued and running
// jobs are never retired, so what the service holds is bounded by Retain
// plus its queues and fleet, not by its uptime.
const Retain = 1024

// Job is the immutable snapshot of one submission, as returned by
// SubmitTraced, Get, Cancel and List and rendered on the HTTP API. The
// service holds it until the job is retired (see Retain).
type Job struct {
	ID       string  `json:"id"`
	Tenant   string  `json:"tenant"`
	Spec     JobSpec `json:"spec"`
	Key      string  `json:"key"`
	State    State   `json:"state"`
	CacheHit bool    `json:"cacheHit"`
	// Result is the rendered experiment table (UTF-8 text), present once
	// State is Done.
	Result string `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	// TraceID is the causal trace the job's spans record under (16 hex
	// digits), present when the submission was traced — the handle clients
	// pass to /debug/flightrecorder?trace=.
	TraceID string `json:"traceId,omitempty"`
	// Timestamps in Unix milliseconds; zero when not reached.
	SubmittedMs int64 `json:"submittedMs"`
	StartedMs   int64 `json:"startedMs,omitempty"`
	FinishedMs  int64 `json:"finishedMs,omitempty"`
}

// job is the mutable record behind the mu lock.
type job struct {
	Job
	seq       int  // the number ID renders; submission order
	cancelled bool // set by Cancel; a running job finishes but stays Canceled
	cause     causal.Context
	queueSpan causal.Span // submit -> dispatch, timing the queue wait; never ended if canceled while queued
}

// tenant is one tenant's record: its FIFO of queued jobs, its
// pre-rendered labeled metric names, and its cache hit/miss tally (for the
// hit-ratio gauge). The service's mu guards all of it.
type tenant struct {
	queue        []*job
	hits, misses int

	submitted  string
	rejected   string
	cacheHits  string
	queueDepth string
	waitNs     string
	bitsServed string
	hitRatio   string
}

// Service schedules jobs over per-tenant FIFO queues onto a bounded
// worker fleet, with fair round-robin dispatch across tenants and a
// content-addressed cache in front of the workers.
type Service struct {
	opts     Options
	queueCap int
	buildSHA string

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenant
	// ring holds the tenants with queued jobs, each once: a tenant joins
	// at the back when its queue stops being empty and leaves when it
	// empties. ringPos is the tenant to dispatch from next.
	ring    []*tenant
	ringPos int
	jobs    map[int]*job // queued, running and retained finished jobs, by seq
	nextID  int          // seq of the latest job issued
	queued  int          // jobs across all queues, for the global depth gauge
	closed  bool
	wg      sync.WaitGroup

	// finished is the retirement window: the seqs of the latest Retain
	// jobs to finish, as a ring; finishes counts every job ever finished.
	finished [Retain]int
	finishes int
}

// Flight returns the causal flight recorder the service records into
// (nil when tracing is disabled).
func (s *Service) Flight() *causal.Recorder { return s.opts.Flight }

// tenantLocked returns the tenant's record, building it at the tenant's
// first submission. Callers hold mu.
func (s *Service) tenantLocked(name string) *tenant {
	tn := s.tenants[name]
	if tn == nil {
		tn = &tenant{
			submitted:  telemetry.Labeled(telemetry.JobsTenantSubmitted, "tenant", name),
			rejected:   telemetry.Labeled(telemetry.JobsTenantRejected, "tenant", name),
			cacheHits:  telemetry.Labeled(telemetry.JobsTenantCacheHits, "tenant", name),
			queueDepth: telemetry.Labeled(telemetry.JobsQueueDepth, "tenant", name),
			waitNs:     telemetry.Labeled(telemetry.JobsQueueWaitNs, "tenant", name),
			bitsServed: telemetry.Labeled(telemetry.JobsBitsServed, "tenant", name),
			hitRatio:   telemetry.Labeled(telemetry.JobsCacheHitRatio, "tenant", name),
		}
		s.tenants[name] = tn
	}
	return tn
}

// recordLookupLocked tallies one cache consult for the tenant and
// refreshes its hit-ratio gauge. Callers hold mu.
func (s *Service) recordLookupLocked(tn *tenant, hit bool) {
	if hit {
		tn.hits++
		s.opts.Recorder.Count(tn.cacheHits, 1)
	} else {
		tn.misses++
	}
	s.opts.Recorder.Gauge(tn.hitRatio, float64(tn.hits)/float64(tn.hits+tn.misses))
}

// depthGaugesLocked refreshes the tenant's and the global queue-depth
// gauges. Callers hold mu.
func (s *Service) depthGaugesLocked(tn *tenant) {
	s.opts.Recorder.Gauge(tn.queueDepth, float64(len(tn.queue)))
	s.opts.Recorder.Gauge(telemetry.JobsQueueDepth, float64(s.queued))
}

// recordBitsServed counts a result's bits toward the fleet and tenant
// totals.
func (s *Service) recordBitsServed(tn *tenant, resultBytes int) {
	bits := int64(resultBytes) * 8
	s.opts.Recorder.Count(telemetry.JobsBitsServed, bits)
	s.opts.Recorder.Count(tn.bitsServed, bits)
}

// New starts a service and its worker fleet. Callers must Close it.
func New(opts Options) *Service {
	if opts.Run == nil {
		opts.Run = RunExperiment
	}
	if opts.BuildSHA == "" {
		opts.BuildSHA = BuildSHA()
	}
	cap := opts.QueueCap
	if cap <= 0 {
		cap = DefaultQueueCap
	}
	s := &Service{
		opts:     opts,
		queueCap: cap,
		buildSHA: opts.BuildSHA,
		tenants:  make(map[string]*tenant),
		jobs:     make(map[int]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < pool.Workers(opts.Workers); w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the fleet: workers finish their in-flight jobs and exit;
// still-queued jobs are marked Canceled. SubmitTraced afterwards returns
// ErrClosed. Close blocks until every worker has returned.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	now := nowMs()
	for _, tn := range s.ring {
		for _, j := range tn.queue {
			j.State = Canceled
			j.FinishedMs = now
			s.finishLocked(j)
			s.opts.Recorder.Count(telemetry.JobsCanceled, 1)
			j.cause.Event(causal.JobCanceled, causal.String("job", j.ID), causal.String("reason", "service closed"))
		}
		s.queued -= len(tn.queue)
		tn.queue = nil
		s.depthGaugesLocked(tn)
	}
	s.ring, s.ringPos = nil, 0
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// SubmitTraced validates and keys the spec in one pass (Key runs Validate
// once, and rejects with its error), consults the cache outside the lock,
// records the lookup under it, and only then checks for a closed service.
// It either answers immediately (cache hit: the job is born Done with
// CacheHit set and no worker is dispatched) or enqueues on the tenant's
// FIFO. A full tenant queue rejects with ErrQueueFull without touching
// other tenants.
//
// cause is minted from the service's Flight recorder at admission; the
// zero Context is untraced. Rejections record a jobs.rejected fault on the
// trace; accepted jobs carry the trace through queue wait, dispatch,
// execution and outcome.
func (s *Service) SubmitTraced(tenant string, spec JobSpec, cause causal.Context) (Job, error) {
	if tenant == "" {
		cause.Fault(causal.JobRejected, causal.String("reason", "empty tenant"))
		return Job{}, fmt.Errorf("jobs: empty tenant")
	}
	key, err := spec.Key(s.buildSHA)
	if err != nil {
		cause.Fault(causal.JobRejected, causal.String("reason", err.Error()))
		return Job{}, err
	}

	var cached string
	hit := false
	if s.opts.Cache != nil {
		cached, hit = s.opts.Cache.Get(key)
	}

	s.mu.Lock()
	tn := s.tenantLocked(tenant)
	if s.opts.Cache != nil {
		s.recordLookupLocked(tn, hit)
	}
	if s.closed {
		s.mu.Unlock()
		cause.Fault(causal.JobRejected, causal.String("reason", "service closed"))
		return Job{}, ErrClosed
	}
	if !hit && len(tn.queue) >= s.queueCap {
		s.mu.Unlock()
		s.opts.Recorder.Count(telemetry.JobsRejected, 1)
		s.opts.Recorder.Count(tn.rejected, 1)
		cause.Fault(causal.JobRejected, causal.String("reason", "queue full"))
		return Job{}, fmt.Errorf("%w (tenant %q, cap %d)", ErrQueueFull, tenant, s.queueCap)
	}
	s.nextID++
	j := &job{
		seq: s.nextID,
		Job: Job{
			ID:          jobID(s.nextID),
			Tenant:      tenant,
			Spec:        spec,
			Key:         key,
			SubmittedMs: nowMs(),
		},
		cause: cause,
	}
	if cause.Enabled() {
		j.TraceID = cause.Trace().String()
	}
	s.jobs[j.seq] = j
	if hit {
		j.State = Done
		j.CacheHit = true
		j.Result = cached
		j.FinishedMs = j.SubmittedMs
		s.finishLocked(j)
		cause.Event(causal.JobCacheHit, causal.String("job", j.ID))
	} else {
		j.State = Queued
		if len(tn.queue) == 0 {
			s.ring = append(s.ring, tn)
		}
		tn.queue = append(tn.queue, j)
		s.queued++
		// The queue-wait span opens here and closes when a worker picks the
		// job up; a job canceled while queued never ends it, so only
		// dispatched jobs contribute queue-wait records and observations.
		j.queueSpan = cause.StartSpan(s.opts.Recorder, causal.JobQueueWait, causal.String("job", j.ID))
		s.depthGaugesLocked(tn)
		s.cond.Signal()
	}
	view := j.Job
	s.mu.Unlock()
	s.opts.Recorder.Count(telemetry.JobsSubmitted, 1)
	s.opts.Recorder.Count(tn.submitted, 1)
	if hit {
		s.recordBitsServed(tn, len(cached))
	}
	return view, nil
}

// jobID renders a job's seq as its ID.
func jobID(seq int) string { return fmt.Sprintf("j%06d", seq) }

// parseID inverts jobID. Only strings jobID renders parse, so "j1" and
// "j0000001" never alias j000001.
func parseID(id string) (int, bool) {
	seq, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil || seq < 1 || jobID(seq) != id {
		return 0, false
	}
	return seq, true
}

// lookupLocked returns the held job with this ID, or nil. Callers hold mu.
func (s *Service) lookupLocked(id string) *job {
	seq, ok := parseID(id)
	if !ok {
		return nil
	}
	return s.jobs[seq]
}

// finishLocked enters j, now in its final state, into the retirement
// window, retiring the job that finished earliest once more than Retain
// have. Callers hold mu.
func (s *Service) finishLocked(j *job) {
	slot := &s.finished[s.finishes%Retain]
	if s.finishes >= Retain {
		delete(s.jobs, *slot)
	}
	*slot = j.seq
	s.finishes++
}

// Get returns the job's current snapshot; false when the ID is unknown or
// retired.
func (s *Service) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.lookupLocked(id)
	if j == nil {
		return Job{}, false
	}
	return j.Job, true
}

// Retired reports whether the service issued this ID and has since
// retired the job (see Retain). IDs are issued in sequence, so an issued
// ID the service no longer holds is a retired one; it needs no tombstone.
func (s *Service) Retired(id string) bool {
	seq, ok := parseID(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, held := s.jobs[seq]
	return ok && seq <= s.nextID && !held
}

// List returns the jobs the service holds — queued, running and the
// retirement window — in submission order.
func (s *Service) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := make([]int, 0, len(s.jobs))
	for seq := range s.jobs {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	out := make([]Job, len(seqs))
	for i, seq := range seqs {
		out[i] = s.jobs[seq].Job
	}
	return out
}

// Cancel stops a job: a queued job leaves its queue immediately; a
// running job is marked Canceled but its computation completes in the
// background (and still feeds the cache). Terminal jobs are unchanged.
// False when the ID is unknown or retired.
func (s *Service) Cancel(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.lookupLocked(id)
	if j == nil {
		return Job{}, false
	}
	switch j.State {
	case Queued:
		tn := s.tenants[j.Tenant]
		for i, qj := range tn.queue {
			if qj == j {
				tn.queue = append(tn.queue[:i:i], tn.queue[i+1:]...)
				s.queued--
				break
			}
		}
		if len(tn.queue) == 0 {
			s.leaveRingLocked(slices.Index(s.ring, tn))
		}
		j.State = Canceled
		j.cancelled = true
		j.FinishedMs = nowMs()
		s.finishLocked(j)
		s.opts.Recorder.Count(telemetry.JobsCanceled, 1)
		s.depthGaugesLocked(tn)
		// The queue-wait span is deliberately never ended: a canceled-while-
		// queued job was never dispatched, so it contributes no wait record.
		j.cause.Event(causal.JobCanceled, causal.String("job", j.ID), causal.String("reason", "client cancel"))
	case Running:
		j.State = Canceled
		j.cancelled = true
		s.opts.Recorder.Count(telemetry.JobsCanceled, 1)
		// The worker emits the causal jobs.canceled event when the in-flight
		// run finishes, keeping the trace's event order causal.
	}
	return j.Job, true
}

// QueueDepth reports the tenant's current queue length (tests, /metrics
// consumers derive global depth from the counters instead).
func (s *Service) QueueDepth(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tn := s.tenants[tenant]; tn != nil {
		return len(tn.queue)
	}
	return 0
}

// worker is one fleet goroutine: block for work, dispatch round-robin,
// execute outside the lock, publish the outcome.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var (
			j  *job
			tn *tenant
		)
		for {
			if s.closed {
				s.mu.Unlock()
				return
			}
			if j, tn = s.popLocked(); j != nil {
				break
			}
			s.cond.Wait()
		}
		j.State = Running
		j.StartedMs = nowMs()
		id, spec := j.ID, j.Spec
		cause := j.cause
		s.depthGaugesLocked(tn)
		wait := float64(j.queueSpan.End())
		s.mu.Unlock()

		// Queue wait is observed exactly once per dispatched job, at
		// dispatch; canceled-while-queued jobs never reach this point.
		s.opts.Recorder.Observe(telemetry.JobsQueueWaitNs, wait)
		s.opts.Recorder.Observe(tn.waitNs, wait)
		cause.Event(causal.JobDispatch, causal.String("job", id))

		var progress func(done, total int)
		if s.opts.Progress != nil {
			progress = s.opts.Progress(id, spec.Experiment)
		}
		exec := cause.StartSpan(s.opts.Recorder, causal.JobExecute,
			causal.String("job", id), causal.String("experiment", spec.Experiment))
		result, err := s.opts.Run(spec, RunContext{
			Recorder: s.opts.Recorder,
			Progress: progress,
			Causal:   exec.Context(),
		})
		s.opts.Recorder.Observe(telemetry.JobsJobNs, float64(exec.End()))

		// With a cache, the job's result is the cache's own string.
		var res string
		if err == nil && s.opts.Cache != nil {
			res = s.opts.Cache.Put(j.Key, result)
		} else if err == nil {
			res = string(result)
		}
		s.mu.Lock()
		now := nowMs()
		if j.cancelled {
			// State stays Canceled; the result went to the cache above, so
			// the computation is not wasted, but the client asked us not to
			// report it.
			j.FinishedMs = now
			cause.Event(causal.JobCanceled, causal.String("job", id), causal.String("reason", "canceled while running"))
		} else if err != nil {
			j.State = Failed
			j.Error = err.Error()
			j.FinishedMs = now
			s.opts.Recorder.Count(telemetry.JobsFailed, 1)
			// Fail marks the fault instant and triggers the flight
			// recorder's at-most-once auto-dump for this trace.
			cause.Fail(causal.JobFail, causal.String("job", id), causal.String("error", err.Error()))
		} else {
			j.State = Done
			j.Result = res
			j.FinishedMs = now
			s.opts.Recorder.Count(telemetry.JobsCompleted, 1)
			s.recordBitsServed(tn, len(res))
			cause.Event(causal.JobDone, causal.Int("bytes", len(res)))
		}
		s.finishLocked(j)
		s.mu.Unlock()
	}
}

// popLocked dequeues the next job fairly, with its tenant: it takes the
// head of the queue of the tenant at ringPos and moves on to the next
// tenant, so one chatty tenant cannot starve the rest. Callers hold mu.
func (s *Service) popLocked() (*job, *tenant) {
	if len(s.ring) == 0 {
		return nil, nil
	}
	tn := s.ring[s.ringPos]
	j := tn.queue[0]
	// Clear the slot, or the queue's backing array would keep the job
	// alive after it is retired.
	tn.queue[0] = nil
	tn.queue = tn.queue[1:]
	s.queued--
	if len(tn.queue) == 0 {
		s.leaveRingLocked(s.ringPos)
	} else {
		s.ringPos = (s.ringPos + 1) % len(s.ring)
	}
	return j, tn
}

// leaveRingLocked takes the tenant at index i out of the ring, keeping
// ringPos on the tenant that was to go next. Callers hold mu.
func (s *Service) leaveRingLocked(i int) {
	s.ring = slices.Delete(s.ring, i, i+1)
	if i < s.ringPos {
		s.ringPos--
	}
	if s.ringPos >= len(s.ring) {
		s.ringPos = 0
	}
}

func nowMs() int64 { return time.Now().UnixMilli() }
