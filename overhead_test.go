package broadcastic_test

// The telemetry overhead guard. Instrumentation is threaded through the
// hot paths (blackboard delivery, netrun wire handling, pool scheduling)
// behind a single nil branch on a *telemetry.Collector; this test pins
// the contract that even a live collector costs (nearly) nothing, so
// telemetry can stay compiled in unconditionally.

import (
	"io"
	"sort"
	"syscall"
	"testing"
	"time"

	"broadcastic/internal/sim"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// medianRunNs interleaves rounds of bare and variant E1 runs and returns
// the median CPU time of each series. A round is timed by this process's
// CPU time, not the wall clock: a quick E1 run takes about 2 ms, so its 2%
// budget is some 40 µs, and one preemption by another process (another
// package's tests, under go test ./...) costs a round that much wall time
// but no CPU time. The interleaved schedule spreads what remains, the
// host's cache and frequency effects and the runtime's own background
// work, evenly across the two series; the median then discards outlier
// rounds in both directions, since a majority of rounds must be disturbed
// before it moves.
func medianRunNs(t *testing.T, rounds int, variant func() sim.Config) (baseNs, variantNs time.Duration) {
	t.Helper()
	run := func(cfg sim.Config) time.Duration {
		start := cpuTime()
		if _, err := sim.E1DisjScalingN(cfg); err != nil {
			t.Fatal(err)
		}
		return cpuTime() - start
	}
	base := func() sim.Config {
		return sim.Config{Seed: 1, Scale: sim.Quick, Workers: 1}
	}
	baseSamples := make([]time.Duration, 0, rounds)
	variantSamples := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		baseSamples = append(baseSamples, run(base()))
		variantSamples = append(variantSamples, run(variant()))
	}
	return medianDuration(baseSamples), medianDuration(variantSamples)
}

// cpuTime returns the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	n := len(ds)
	if n%2 == 1 {
		return ds[n/2]
	}
	return (ds[n/2-1] + ds[n/2]) / 2
}

// TestNoopRecorderOverhead asserts the <2% budget on the E1 sweep with a
// live collector installed: every instrumentation site takes its branch
// and records, so this bounds the disabled path from above. Timing
// thresholds are inherently noisy, so the test compares medians of
// repeated interleaved runs and retries with growing round counts, only
// failing if every attempt exceeds the budget.
func TestNoopRecorderOverhead(t *testing.T) {
	// One long-lived collector, as in the daemon.
	col := telemetry.NewCollector()
	recorded := func() sim.Config {
		return sim.Config{Seed: 1, Scale: sim.Quick, Workers: 1, Recorder: col}
	}
	assertBudget(t, "live collector", recorded)
}

// TestTracedPathOverhead asserts the same <2% budget with the causal plane
// fully live: a real flight recorder with auto-dump armed, every cell and
// shard opening spans into the sharded ring alongside a live metrics
// collector. This is the complete observability stack a traced job runs
// under, so the budget covers production tracing, not just the disabled
// branch.
func TestTracedPathOverhead(t *testing.T) {
	// One long-lived recorder, as in the daemon: rounds share the ring (a
	// fresh 32k-record ring per round would be measuring allocator churn,
	// not tracing).
	fr := causal.NewRecorder(0)
	fr.SetAutoDump(io.Discard)
	col := telemetry.NewCollector()
	traced := func() sim.Config {
		return sim.Config{Seed: 1, Scale: sim.Quick, Workers: 1,
			Recorder: col,
			Causal:   fr.StartTrace(causal.ExperimentRoot, causal.String("experiment", "E1"))}
	}
	assertBudget(t, "fully-traced path", traced)
}

// assertBudget compares the variant's median E1 CPU time against the bare
// baseline, retrying with growing round counts and only failing if every
// attempt exceeds the budget.
func assertBudget(t *testing.T, label string, variant func() sim.Config) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	const budget = 1.02
	// Warm caches and the allocator/pool state once.
	medianRunNs(t, 1, variant)
	var worst float64
	for attempt, rounds := range []int{7, 11, 15} {
		baseNs, varNs := medianRunNs(t, rounds, variant)
		ratio := float64(varNs) / float64(baseNs)
		t.Logf("attempt %d: base %v, %s %v, ratio %.4f", attempt, baseNs, label, varNs, ratio)
		if ratio <= budget {
			return
		}
		if ratio > worst {
			worst = ratio
		}
	}
	t.Fatalf("%s overhead %.2f%% exceeds 2%% budget in every attempt", label, (worst-1)*100)
}
