package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"broadcastic/internal/sim"
	"broadcastic/internal/telemetry"
)

// passResult is one pass of a workload: the ops started in its measured
// window and the process meters at the window's edges.
type passResult struct {
	ops           []*op
	windowStart   time.Time
	window        time.Duration
	before, after meter
	// At each GC cycle that ended inside the window: the service's
	// accepted-job count (jobs.submitted) and the bytes the cycle marked
	// live.
	heapJobs, heapLive []float64
}

// retainedKBPerJob is the live-heap growth per job the service accepted:
// the least-squares slope of live heap against jobs over the window's GC
// cycles. Read at GC cycles, it depends neither on where in the GC cycle
// the window ends nor on how many jobs a faster program fits into it.
func (r passResult) retainedKBPerJob() float64 {
	slope, _, err := sim.FitSlope(r.heapJobs, r.heapLive)
	if err != nil {
		return 0
	}
	return slope / 1024
}

// meter is a snapshot of the process and the program's own counters.
type meter struct {
	cpu      time.Duration      // process user+sys time
	allocs   uint64             // cumulative heap bytes allocated
	gcCPU    float64            // cumulative GC CPU seconds (runtime estimate)
	totalCPU float64            // cumulative CPU seconds (same estimate)
	counters map[string]float64 // the Collector's snapshot
	appended int64              // flight records ever appended
}

// maxWarmup bounds a warm-up that waits for the flight recorder to wrap.
const maxWarmup = 20 * time.Second

// window is a pass's measured interval. It opens when warm-up ends, which
// the meter decides while the clients are running.
type window struct {
	mu         sync.Mutex
	start, end time.Time // zero until it opens
}

func (w *window) open(start time.Time, d time.Duration) {
	w.mu.Lock()
	w.start, w.end = start, start.Add(d)
	w.mu.Unlock()
}

// contains reports whether t falls in the window; nothing does before it
// opens.
func (w *window) contains(t time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.start.IsZero() && !t.Before(w.start) && t.Before(w.end)
}

// closedBy reports whether the window has opened and ended by t.
func (w *window) closedBy(t time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.end.IsZero() && !t.Before(w.end)
}

// runPass drives the system with the workload's client model, warms it
// up for warm and meters a window of length measure. With untilWrapped
// the warm-up also lasts until the flight recorder's ring has wrapped:
// before that every job also grows the heap by its records, which a
// long-running daemon no longer pays.
func runPass(g *loadgen, workload string, seed uint64, nproc int, warm, measure time.Duration, untilWrapped bool) passResult {
	start := time.Now()
	res := passResult{window: measure}
	g.win = &window{}

	meterDone := make(chan struct{})
	go func() {
		defer close(meterDone)
		sleepUntil(start.Add(warm))
		for untilWrapped && time.Since(start) < maxWarmup && !ringWrapped(g.sys) {
			time.Sleep(10 * time.Millisecond)
		}
		res.windowStart = time.Now()
		end := res.windowStart.Add(measure)
		g.win.open(res.windowStart, measure)
		res.before = takeMeter(g.sys)
		sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		cycles := sample[0].Value.Uint64()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for time.Now().Before(end) {
			<-tick.C
			metrics.Read(sample)
			if c := sample[0].Value.Uint64(); c != cycles {
				cycles = c
				res.heapJobs = append(res.heapJobs, float64(g.sys.col.Counter(telemetry.JobsSubmitted)))
				res.heapLive = append(res.heapLive, float64(sample[1].Value.Uint64()))
			}
		}
		res.after = takeMeter(g.sys)
	}()

	ops := g.closedLoop(workload, seed, nproc)
	<-meterDone
	for _, o := range ops {
		if g.win.contains(o.t0) {
			res.ops = append(res.ops, o)
		}
	}
	return res
}

func ringWrapped(sys *system) bool {
	_, appended, capacity := sys.fr.Stats()
	return appended >= int64(capacity)
}

func takeMeter(sys *system) meter {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	_, appended, _ := sys.fr.Stats()
	return meter{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		counters: sys.col.Snapshot(),
		appended: appended,
	}
}

// delta is the change of a Collector value across the window.
func (r passResult) delta(name string) float64 {
	return r.after.counters[name] - r.before.counters[name]
}

// histSumDelta is the change of a Collector histogram's sum.
func (r passResult) histSumDelta(name string) float64 {
	sum := func(c map[string]float64) float64 { return c[name] * c[name+".count"] }
	return sum(r.after.counters) - sum(r.before.counters)
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
