// Command experiments runs the complete reproduction suite (E1–E21 from
// EXPERIMENTS.md) and prints one table per experiment.
//
// Usage:
//
//	experiments [-seed N] [-scale quick|full] [-only E4,E7] [-parallel N]
//	            [-noir] [-runtrace dir]
//	            [-log level] [-logformat text|json] [-version]
//	            [-cpuprofile f] [-memprofile f] [-tracefile f]
//
// Each experiment's wall time is on its "experiment done" log line. With
// -runtrace, each experiment runs under its own causal trace and writes it
// as a Chrome trace-event file to the given directory; it only observes:
// tables are bit-identical with it enabled. For a run's metrics and a live
// observability plane (/metrics, /healthz, /runs, /debug/pprof) over the
// same suite, run cmd/broadcasticd with -once -jobs=false: its stdout is
// byte-identical to this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"broadcastic/internal/buildinfo"
	"broadcastic/internal/pool"
	"broadcastic/internal/sim"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
	"broadcastic/internal/telemetry/tracelog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "root random seed")
	scale := fs.String("scale", "full", "experiment scale: quick or full")
	only := fs.String("only", "", "comma-separated experiment IDs to run (e.g. E4,E7)")
	parallel := fs.Int("parallel", 0, "worker goroutines per sweep (0 = one per CPU); output is identical for every value")
	noir := fs.Bool("noir", false, "disable the compiled-IR fast path and run the scalar estimator (output is identical either way)")
	runtrace := fs.String("runtrace", "", "directory for per-experiment Chrome trace-event files")
	var logCfg telemetry.LogConfig
	logCfg.AddFlags(fs)
	version := buildinfo.Flag(fs)
	var profiles telemetry.Profiles
	profiles.AddFlags(fs)
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
	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: profiles:", err)
		}
	}()
	cfg := sim.Config{Seed: *seed, Workers: *parallel, DisableIR: *noir}
	if cfg.Scale, err = sim.ParseScale(*scale); err != nil {
		return err
	}
	selected, err := sim.Select(*only)
	if err != nil {
		return err
	}
	// -runtrace mints one causal trace per experiment with a Perfetto
	// sink attached; the recorder supplies IDs and the clock.
	var traces *causal.Recorder
	if *runtrace != "" {
		if err := os.MkdirAll(*runtrace, 0o755); err != nil {
			return err
		}
		traces = causal.NewRecorder(0)
	}

	// Experiments are independent: run them on the pool, each with its own
	// run trace.
	tables, err := pool.Map(pool.Workers(cfg.Workers), len(selected), func(i int) (*sim.Table, error) {
		exp := selected[i]
		runID := fmt.Sprintf("%s-seed%d", exp.ID, *seed)
		ecfg := cfg
		var sink *tracelog.Sink
		if traces != nil {
			sink = tracelog.New(runID)
			ecfg.Causal = traces.StartTraceSink(sink, causal.ExperimentRoot,
				causal.String("experiment", exp.ID), causal.String("runId", runID))
		}
		logger.Info("experiment start", "id", exp.ID, "runId", runID)
		start := time.Now()
		tbl, err := exp.Run(ecfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp.ID, err)
		}
		elapsed := time.Since(start)
		if sink != nil {
			path, err := sink.WriteFile(*runtrace)
			if err != nil {
				return nil, err
			}
			logger.Info("trace written", "id", exp.ID, "path", path)
		}
		logger.Info("experiment done", "id", exp.ID, "elapsed", elapsed)
		return tbl, nil
	})
	if err != nil {
		return err
	}
	for _, tbl := range tables {
		if err := tbl.Render(out); err != nil {
			return err
		}
	}
	return nil
}
