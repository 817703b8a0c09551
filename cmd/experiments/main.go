// Command experiments runs the complete reproduction suite (E1–E21 from
// EXPERIMENTS.md) and prints one table per experiment.
//
// Usage:
//
//	experiments [-seed N] [-scale quick|full] [-only E4,E7] [-parallel N]
//	            [-noir] [-telemetry out.json] [-runtrace dir]
//	            [-log level] [-logformat text|json] [-version]
//	            [-cpuprofile f] [-memprofile f] [-tracefile f]
//
// With -telemetry, each experiment runs with a telemetry collector attached
// and one benchjson entry per experiment (wall time, recorded bits, full
// metric snapshot) is written to out.json — the same schema the benchmark
// suite and CI perf gate use. With -runtrace, each experiment runs under
// its own causal trace and writes it as a Chrome trace-event file to the
// given directory. Both only observe: tables are bit-identical with either
// or both enabled. For a live observability plane (/metrics, /healthz,
// /runs, /debug/pprof) over the same suite, run cmd/broadcasticd with
// -once -jobs=false: its stdout is byte-identical to this command's.
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
	"broadcastic/internal/telemetry/benchjson"
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
	telemetryPath := fs.String("telemetry", "", "write per-experiment benchjson telemetry to this file")
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

	type result struct {
		table   *sim.Table
		elapsed time.Duration
		metrics map[string]float64
	}
	// Experiments are independent: run them on the pool, each with its own
	// collector so per-experiment metrics don't mix, and with its own run
	// trace.
	results, err := pool.Map(pool.Workers(cfg.Workers), len(selected), func(i int) (result, error) {
		exp := selected[i]
		runID := fmt.Sprintf("%s-seed%d", exp.ID, *seed)
		ecfg := cfg
		if *telemetryPath != "" {
			ecfg.Recorder = telemetry.NewCollector()
		}
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
			return result{}, fmt.Errorf("%s: %w", exp.ID, err)
		}
		r := result{table: tbl, elapsed: time.Since(start)}
		if ecfg.Recorder != nil {
			r.metrics = ecfg.Recorder.Snapshot()
		}
		if sink != nil {
			path, err := sink.WriteFile(*runtrace)
			if err != nil {
				return result{}, err
			}
			logger.Info("trace written", "id", exp.ID, "path", path)
		}
		logger.Info("experiment done", "id", exp.ID, "elapsed", r.elapsed)
		return r, nil
	})
	if err != nil {
		return err
	}
	for _, r := range results {
		if err := r.table.Render(out); err != nil {
			return err
		}
	}

	if *telemetryPath != "" {
		f := benchjson.New(*scale, pool.Workers(cfg.Workers))
		f.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		for i, r := range results {
			f.AddEntry(benchjson.Entry{
				Name:       selected[i].ID,
				Iterations: 1,
				NsPerOp:    float64(r.elapsed),
				MinNsPerOp: float64(r.elapsed),
				BitsPerOp:  r.metrics[telemetry.BlackboardBits] + r.metrics[telemetry.NetrunWireBits],
				Samples:    1,
				Metrics:    r.metrics,
			})
		}
		if err := benchjson.WriteFile(*telemetryPath, f); err != nil {
			return err
		}
	}
	return nil
}
