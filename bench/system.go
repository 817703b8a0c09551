package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"broadcastic/internal/jobs"
	"broadcastic/internal/serve"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// system is the daemon's default wiring (cmd/broadcasticd with -suite=false),
// built in-process from the public constructors and served on an
// httptest server, plus the benchmark's own hooks: the runner wrapper that
// signals completion and, in a traced pass, the spans around each layer.
type system struct {
	col    *telemetry.Collector
	fr     *causal.Recorder
	svc    *jobs.Service
	srv    *httptest.Server
	client *http.Client
	done   *registry
	spans  *spanLog // nil in untraced passes
}

type systemConfig struct {
	nproc        int
	queueCap     int
	cacheEntries int
	cacheDir     string // "" = memory-only cache
	flight       int    // flight recorder capacity in records
	traced       bool
}

func startSystem(cfg systemConfig) *system {
	s := &system{done: newRegistry()}
	if cfg.traced {
		s.spans = &spanLog{}
	}
	s.col = telemetry.NewCollector()
	broker := serve.NewBrokerRecorded(s.col)
	health := &serve.Health{}
	mux := serve.NewMuxHealth(s.col, broker, health)
	s.fr = causal.NewRecorder(cfg.flight)
	s.fr.SetAutoDump(os.Stderr)
	serve.AttachFlightRecorder(mux, s.fr)
	s.svc = jobs.New(jobs.Options{
		Workers:  cfg.nproc,
		QueueCap: cfg.queueCap,
		Cache:    jobs.NewCache(cfg.cacheEntries, 0, cfg.cacheDir, s.col),
		Recorder: s.col,
		Flight:   s.fr,
		Progress: func(jobID, experiment string) func(done, total int) {
			return broker.ProgressFunc(jobID, experiment, s.col)
		},
		Run: s.run,
	})
	serve.AttachJobs(mux, s.svc)
	var h http.Handler = mux
	if s.spans != nil {
		h = s.spans.middleware(s.fr, mux)
	}
	s.srv = httptest.NewServer(h)
	health.SetReady(true)
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     cfg.nproc,
		MaxIdleConnsPerHost: cfg.nproc,
	}}
	return s
}

// close stops the server, then drains the fleet.
func (s *system) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.svc.Close()
}

// run is the service's Runner: jobs.RunExperiment, timed in traced passes,
// then a completion signal so the client can fetch the result without
// polling.
func (s *system) run(spec jobs.JobSpec, rc jobs.RunContext) ([]byte, error) {
	start := time.Now()
	out, err := jobs.RunExperiment(spec, rc)
	if s.spans != nil {
		s.spans.runner(rc.Causal.Trace(), spec.Experiment, s.fr.Epoch(), start, time.Now())
	}
	s.done.fire(rc.Causal.Trace())
	return out, err
}

// registry pairs runner completions with the clients waiting for them,
// whichever of the two arrives first.
type registry struct {
	mu sync.Mutex
	m  map[causal.TraceID]func() // nil value: fired before anyone watched
}

func newRegistry() *registry {
	return &registry{m: make(map[causal.TraceID]func())}
}

// fire marks the trace's run complete and calls its watcher, if any.
func (r *registry) fire(t causal.TraceID) {
	r.mu.Lock()
	fn, watched := r.m[t]
	if watched {
		delete(r.m, t)
	} else {
		r.m[t] = nil
	}
	r.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// watch calls fn once the trace's run has completed: now, if it already
// has, otherwise from fire.
func (r *registry) watch(t causal.TraceID, fn func()) {
	r.mu.Lock()
	_, fired := r.m[t]
	if fired {
		delete(r.m, t)
	} else {
		r.m[t] = fn
	}
	r.mu.Unlock()
	if fired {
		fn()
	}
}

// spanLog holds the benchmark's own spans of a traced pass, on the flight
// recorder's clock: one per HTTP handler call, keyed by the op that sent
// it, and one per runner call, keyed by trace.
type spanLog struct {
	mu       sync.Mutex
	handlers map[int64][]requestSpan
	runners  map[causal.TraceID]runnerSpan
}

// requestSpan is one HTTP request's interval, seen by the client or by
// the handler.
type requestSpan struct {
	method string
	interval
}

type runnerSpan struct {
	experiment string
	interval
}

// opHeader carries the op's index from the client to the middleware.
const opHeader = "X-Bench-Op"

func (l *spanLog) middleware(fr *causal.Recorder, next http.Handler) http.Handler {
	epoch := fr.Epoch()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Since(epoch)
		next.ServeHTTP(w, r)
		end := time.Since(epoch)
		id, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.handlers == nil {
			l.handlers = make(map[int64][]requestSpan)
		}
		l.handlers[id] = append(l.handlers[id], requestSpan{r.Method, interval{int64(start), int64(end)}})
		l.mu.Unlock()
	})
}

func (l *spanLog) runner(t causal.TraceID, exp string, epoch, start, end time.Time) {
	l.mu.Lock()
	if l.runners == nil {
		l.runners = make(map[causal.TraceID]runnerSpan)
	}
	l.runners[t] = runnerSpan{exp, interval{int64(start.Sub(epoch)), int64(end.Sub(epoch))}}
	l.mu.Unlock()
}
