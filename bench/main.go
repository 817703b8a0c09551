// Command bench is the end-to-end benchmark of the broadcastic job
// service. It builds the daemon's default wiring in-process, serves it on
// an httptest server and drives it over HTTP with one of three seeded
// workloads, then prints every metric by name and unit and checks the
// results it was served. See README.md for the workloads and metrics.
//
// Usage:
//
//	bench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	bench -compare A.json B.json
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// reports the per-layer metrics from an untraced and a traced pass. The
// last line of standard output is the result object; the line before it
// is the full report, with sample counts and check results.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"broadcastic/internal/ir"
	"broadcastic/internal/jobs"
	"broadcastic/internal/pool"
	"broadcastic/internal/telemetry/causal"
)

const (
	// warmup precedes every measured window, untimed.
	warmup = 3 * time.Second
	// setupRepeats is how many times a -trace 0 run starts a system and
	// serves its first results; setup_s is the median.
	setupRepeats = 31
	// A traced pass's flight recorder holds tracedHeadroom times the
	// records the untraced pass appended in as long, and at least
	// minTracedFlight.
	tracedHeadroom  = 3
	minTracedFlight = 1 << 16
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloads))
	seed := flag.Uint64("seed", 1, "workload seed: every spec derives from it")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an untraced and a traced pass")
	compare := flag.Bool("compare", false, "compare two files of run outputs against the bounds in BENCHMARK.json")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two files")
			os.Exit(2)
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), "BENCHMARK.json", os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -workload in", workloads, ", -seconds ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and returns its report.
func run(workload string, seed uint64, length time.Duration, traced bool) (*report, error) {
	// The fleet and the clients each get one goroutine per CPU, and
	// GOMAXPROCS keeps the daemon's default.
	nproc := runtime.NumCPU()
	cfg := systemConfig{
		nproc:        nproc,
		queueCap:     jobs.DefaultQueueCap,
		cacheEntries: daemonCacheEntries,
		flight:       causal.DefaultCapacity,
	}
	g := &loadgen{next: new(atomic.Int64), sample: newReservoir(seed), win: &window{}}
	g.next.Store(fixtureSize)
	if workload == "cache_spill" {
		// run.sh points TMPDIR into the benchmark's build directory.
		dir, err := os.MkdirTemp("", "bench-spill-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if g.expected, err = buildFixture(dir, seed, nproc); err != nil {
			return nil, err
		}
		cfg.cacheDir, cfg.cacheEntries = dir, spillEntries
	}
	rep := &report{Workload: workload, Seed: seed, Traced: traced, Seconds: length.Seconds(), Nproc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	if !traced {
		setups := make([]float64, setupRepeats)
		for i := range setups {
			var err error
			if setups[i], err = timeSetup(g, cfg, workload, seed); err != nil {
				return nil, err
			}
		}
		g.sys = startSystem(cfg)
		res := runPass(g, workload, seed, nproc, warmup, length, true)
		g.sys.close()
		rep.addEndToEnd(res, setups)
		rep.addOutcomes(res)
	} else {
		// Two passes alike but for tracing, each on a fresh system with
		// the same warm-up, so their throughputs give the tracing cost.
		g.sys = startSystem(cfg)
		plain := runPass(g, workload, seed, nproc, warmup, length/2, false)
		g.sys.close()
		// Size the traced recorder from the untraced pass's record rate,
		// with room for the host to run faster, so that nothing is evicted.
		rate := float64(plain.after.appended-plain.before.appended) / plain.window.Seconds()
		cfg.traced = true
		cfg.flight = max(minTracedFlight, int(tracedHeadroom*rate*(warmup+length/2).Seconds()))
		g.sys = startSystem(cfg)
		tr := runPass(g, workload, seed, nproc, warmup, length/2, false)
		g.sys.close()
		rep.addOutcomes(plain)
		rep.addOutcomes(tr)
		rep.addPerLayer(plain, tr, analyzeTrace(g.sys, tr))
	}
	checked, mismatched := g.sample.recheck()
	rep.Checks.Rechecked, rep.Checks.RecheckMismatches = checked, mismatched
	rep.Failed += mismatched
	rep.finish()
	return rep, nil
}

// timeSetup starts a system, as a restarted daemon would, and serves one
// op of each kind in the workload's mix through it, one after another. It
// returns the seconds from the start of construction to the last result
// in hand: the set-up a user waits for before a fresh service answers.
// The estimator's compiled-program cache is emptied first, so every
// repeat pays the compiles a fresh process pays.
func timeSetup(g *loadgen, cfg systemConfig, workload string, seed uint64) (float64, error) {
	// Collect the previous repeat's garbage first, so each is charged for
	// its own work only.
	runtime.GC()
	ir.ResetProgramCache()
	n := int64(len(mixes[workload]))
	reqs := setupRequests(workload, seed, uint64(g.next.Add(n)-n))
	start := time.Now()
	g.sys = startSystem(cfg)
	defer g.sys.close()
	for _, req := range reqs {
		o := &op{req: req}
		g.do(o)
		if o.outcome != ok {
			return 0, fmt.Errorf("set-up: %s op did not succeed", req.spec.Experiment)
		}
	}
	return time.Since(start).Seconds(), nil
}

// buildFixture computes the cache_spill fixture with the program under
// test and spills it into dir, returning each key's reference result.
// Cache keys include the build identity, so the fixture is rebuilt by
// every run rather than committed.
func buildFixture(dir string, seed uint64, nproc int) (map[string]string, error) {
	specs := fixtureSpecs(seed)
	results, err := pool.Map(nproc, len(specs), func(i int) ([]byte, error) {
		return jobs.RunExperiment(specs[i], jobs.RunContext{})
	})
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	cache := jobs.NewCache(len(specs), 0, dir, nil)
	sha := jobs.BuildSHA()
	expected := make(map[string]string, len(specs))
	for i, spec := range specs {
		key, err := spec.Key(sha)
		if err != nil {
			return nil, fmt.Errorf("fixture: %w", err)
		}
		cache.Put(key, results[i])
		expected[key] = string(results[i])
	}
	// Put's spill write is best-effort; a fixture missing on disk would
	// turn intended hits into misses.
	files, err := filepath.Glob(filepath.Join(dir, "*.result"))
	if err != nil || len(files) != len(specs) {
		return nil, fmt.Errorf("fixture: %d of %d results spilled to %s", len(files), len(specs), dir)
	}
	return expected, nil
}
