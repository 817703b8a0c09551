// Command broadcasticd runs the experiment suite behind a live
// observability plane: while experiments execute (and, by default, after
// they finish), it serves
//
//	/metrics       Prometheus text exposition of the shared collector
//	/healthz       liveness + build identity JSON
//	/runs          per-experiment progress (NDJSON; ?follow=1 or SSE streams)
//	/jobs          multi-tenant job API (POST to submit, GET to inspect,
//	               DELETE to cancel) over a bounded worker fleet with a
//	               content-addressed result cache
//	/debug/pprof/  runtime profiles
//
// Usage:
//
//	broadcasticd [-serve 127.0.0.1:8344] [-seed N] [-scale quick|full]
//	             [-only E4,E7] [-parallel N] [-once] [-runtrace dir]
//	             [-suite=false] [-jobs=false] [-job-workers N]
//	             [-queue-cap N] [-cache-entries N] [-cache-bytes N]
//	             [-cache-dir dir] [-flight N] [-log level]
//	             [-logformat text|json] [-version]
//
// Tables print to stdout exactly as cmd/experiments prints them; the
// serving, tracing and logging planes only observe, so stdout is
// byte-identical to an unobserved run with the same seed and scale. With
// -runtrace, each experiment additionally writes a Chrome trace-event
// file <dir>/<ID>-seed<N>.trace.json, openable at ui.perfetto.dev.
//
// Without -once the process keeps serving after the suite completes (so
// dashboards can scrape final totals) until SIGINT/SIGTERM. With -once
// -jobs=false it is an observed suite run: cmd/experiments' tables, with
// the plane up for the duration of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"broadcastic/internal/buildinfo"
	"broadcastic/internal/jobs"
	"broadcastic/internal/serve"
	"broadcastic/internal/sim"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
	"broadcastic/internal/telemetry/tracelog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "broadcasticd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("broadcasticd", flag.ContinueOnError)
	addr := fs.String("serve", "127.0.0.1:8344", "address for the observability plane (\":0\" picks a free port)")
	seed := fs.Uint64("seed", 1, "root random seed")
	scale := fs.String("scale", "quick", "experiment scale: quick or full")
	only := fs.String("only", "", "comma-separated experiment IDs to run (e.g. E4,E7)")
	parallel := fs.Int("parallel", 0, "worker goroutines per sweep (0 = one per CPU); output is identical for every value")
	noir := fs.Bool("noir", false, "disable the compiled-IR fast path and run the scalar estimator (output is identical either way)")
	once := fs.Bool("once", false, "exit when the suite completes instead of serving until a signal")
	runtrace := fs.String("runtrace", "", "directory for per-experiment Chrome trace-event files")
	suite := fs.Bool("suite", true, "run the experiment suite at startup (disable for a pure job service)")
	jobsOn := fs.Bool("jobs", true, "serve the /jobs API")
	jobWorkers := fs.Int("job-workers", 0, "job worker fleet size (0 = one per CPU)")
	queueCap := fs.Int("queue-cap", jobs.DefaultQueueCap, "per-tenant job queue capacity")
	cacheEntries := fs.Int("cache-entries", 64, "result cache capacity in entries")
	cacheBytes := fs.Int64("cache-bytes", 0, "result cache capacity in bytes (0 = unbounded)")
	cacheDir := fs.String("cache-dir", "", "directory for cache disk spill (\"\" = memory only)")
	flight := fs.Int("flight", causal.DefaultCapacity, "flight recorder capacity in records (0 disables causal tracing)")
	var logCfg telemetry.LogConfig
	logCfg.AddFlags(fs)
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.Resolve())
		return nil
	}
	logger, err := logCfg.Logger(os.Stderr)
	if err != nil {
		return err
	}
	cfg := sim.Config{Seed: *seed, Workers: *parallel, DisableIR: *noir}
	if cfg.Scale, err = sim.ParseScale(*scale); err != nil {
		return err
	}
	selected, err := sim.Select(*only)
	if err != nil {
		return err
	}
	if *runtrace != "" {
		if err := os.MkdirAll(*runtrace, 0o755); err != nil {
			return err
		}
	}

	col := telemetry.NewCollector()
	broker := serve.NewBrokerRecorded(col)
	health := &serve.Health{}
	mux := serve.NewMuxHealth(col, broker, health)
	// The flight recorder is the bounded causal-trace ring behind
	// /debug/flightrecorder; failed jobs and crashes auto-dump their trace
	// to stderr so a crash leaves its causal chain in the logs.
	var fr *causal.Recorder
	if *flight > 0 {
		fr = causal.NewRecorder(*flight)
		fr.SetAutoDump(os.Stderr)
		serve.AttachFlightRecorder(mux, fr)
	}
	var svc *jobs.Service
	if *jobsOn {
		if *cacheDir != "" {
			if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
				return err
			}
		}
		svc = jobs.New(jobs.Options{
			Workers:  *jobWorkers,
			QueueCap: *queueCap,
			Cache:    jobs.NewCache(*cacheEntries, *cacheBytes, *cacheDir, col),
			Recorder: col,
			Flight:   fr,
			// Submitted jobs stream on /runs alongside the suite, keyed by
			// job ID so concurrent runs of the same experiment stay distinct.
			Progress: func(jobID, experiment string) func(done, total int) {
				return broker.ProgressFunc(jobID, experiment, col)
			},
		})
		serve.AttachJobs(mux, svc)
	}
	srv, err := serve.Start(*addr, mux)
	if err != nil {
		if svc != nil {
			svc.Close()
		}
		return err
	}
	// Ready only once everything that serves requests is up: from here
	// /healthz flips to 200 until shutdown begins draining.
	health.SetReady(true)
	logger.Info("observability plane up",
		"addr", srv.Addr(), "scale", *scale, "seed", *seed,
		"experiments", len(selected), "jobs", *jobsOn)

	if !*suite {
		selected = nil
	}
	// Suite runs trace into the flight recorder; -runtrace with -flight 0
	// still needs a trace to tee its sink from, so it gets a recorder of
	// its own.
	traces := fr
	if traces == nil && *runtrace != "" {
		traces = causal.NewRecorder(0)
	}
	// Experiments run sequentially: the daemon's point is a legible live
	// view, and one experiment at a time keeps /runs progress and the
	// /metrics deltas attributable. Each sweep still parallelizes its
	// cells across the worker pool.
	for _, exp := range selected {
		runID := fmt.Sprintf("%s-seed%d", exp.ID, *seed)
		ecfg := cfg
		ecfg.Recorder = col
		var sink *tracelog.Sink
		if traces != nil {
			// One root per experiment, teed into the run's Perfetto trace
			// when -runtrace is on (the sink attaches before the root so
			// the trace's identity lands on the process).
			var tee causal.EventSink
			if *runtrace != "" {
				sink = tracelog.New(runID)
				tee = sink
			}
			ecfg.Causal = traces.StartTraceSink(tee, causal.ExperimentRoot,
				causal.String("experiment", exp.ID), causal.String("runId", runID))
		}
		ecfg.Progress = broker.ProgressFunc(runID, exp.ID, col)
		logger.Info("experiment start", "id", exp.ID, "runId", runID)
		start := time.Now()
		tbl, err := exp.Run(ecfg)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		logger.Info("experiment done", "id", exp.ID, "elapsed", time.Since(start),
			"blackboardBits", col.Counter(telemetry.BlackboardBits),
			"wireBits", col.Counter(telemetry.NetrunWireBits))
		if sink != nil {
			path, err := sink.WriteFile(*runtrace)
			if err != nil {
				return err
			}
			logger.Info("trace written", "id", exp.ID, "path", path)
		}
	}

	if !*once {
		logger.Info("suite complete; serving until SIGINT/SIGTERM", "addr", srv.Addr())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		<-ctx.Done()
		stop()
	}
	// Draining starts: report not-ready before tearing anything down so
	// orchestrators stop routing while in-flight work completes.
	health.SetReady(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// HTTP first (no new submissions), then drain the job fleet.
	shutdownErr := srv.Shutdown(shutdownCtx)
	if svc != nil {
		svc.Close()
		logger.Info("job service drained")
	}
	return shutdownErr
}
