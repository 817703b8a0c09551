package telemetry

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestNilSafeHelpers pins the disabled plane: on a nil *Collector the
// recording methods must not panic and Counter reads 0.
func TestNilSafeHelpers(t *testing.T) {
	var c *Collector
	c.Count("x", 1)
	c.Observe("x", 1)
	c.Observe("x", 1, 2, 3)
	c.Gauge("x", 1)
	if got := c.Counter("x"); got != 0 {
		t.Fatalf("nil collector counter = %d, want 0", got)
	}
	if got := c.Hist("x"); got != (HistSummary{}) {
		t.Fatalf("nil collector histogram = %+v, want zero", got)
	}
}

// Observe with several values adds each as one sample, and Observe with
// none records nothing: no series appears until a histogram holds a
// sample, so a run that timed nothing shows no empty histogram.
func TestObserveWithoutValuesCreatesNoSeries(t *testing.T) {
	c := NewCollector()
	c.Observe("h")
	c.Observe("h", []float64{}...)
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Fatalf("empty observes are visible: %v", snap)
	}
	if ex := c.Export(); len(ex.Counters)+len(ex.Gauges)+len(ex.Histograms) != 0 {
		t.Fatalf("empty observes are exported: %+v", ex)
	}
	c.Observe("h", 2, 4)
	c.Observe("h")
	c.Observe("h", 6)
	if h := c.Hist("h"); h.Count != 3 || h.Sum != 12 || h.Min != 2 || h.Max != 6 {
		t.Fatalf("hist = %+v", h)
	}
	snap := c.Snapshot()
	if snap["h"] != 4 || snap["h.count"] != 3 || len(snap) != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestHistogramBuckets pins both sides of every power of two: 2^i opens
// bucket i and the float64 just below it closes bucket i-1. A rounded
// log2 put the values just below a power of two one bucket high.
func TestHistogramBuckets(t *testing.T) {
	for i := 0; i <= 70; i++ {
		p := math.Ldexp(1, i)
		want := min(i, histBuckets-1)
		if got := bucketOf(p); got != want {
			t.Errorf("2^%d lands in bucket %d, want %d", i, got, want)
		}
		below := math.Nextafter(p, 0)
		want = min(max(i-1, 0), histBuckets-1)
		if got := bucketOf(below); got != want {
			t.Errorf("2^%d - ulp = %v lands in bucket %d, want %d", i, below, got, want)
		}
	}
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{7.999999999999999, 2},
		{1<<49 - 1, 48},
		{1<<53 - 1, 52},
		{0.5, 0}, {0, 0}, {-3, 0}, {math.NaN(), 0}, {math.Inf(-1), 0},
		{math.Inf(1), histBuckets - 1}, {math.MaxFloat64, histBuckets - 1},
	} {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("%v lands in bucket %d, want %d", tc.v, got, tc.want)
		}
	}
	c := NewCollector()
	c.Observe("h", 7.999999999999999)
	c.Observe("h", 8)
	if b := c.Export().Histograms[0].Buckets; b[2] != 1 || b[3] != 1 {
		t.Fatalf("buckets 2, 3 = %d, %d, want 1, 1", b[2], b[3])
	}
}

// Adding samples to an existing histogram allocates nothing, one value at
// a time or several at once.
func TestObserveAllocatesNothing(t *testing.T) {
	c := NewCollector()
	c.Observe("h", 1)
	if n := testing.AllocsPerRun(1000, func() { c.Observe("h", 1234) }); n != 0 {
		t.Errorf("Observe of one value allocates %v times", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Observe("h", 1, 20, 300) }); n != 0 {
		t.Errorf("Observe of three values allocates %v times", n)
	}
	batch := []float64{5, 50, 500, 5000}
	if n := testing.AllocsPerRun(1000, func() { c.Observe("h", batch...) }); n != 0 {
		t.Errorf("Observe of a slice allocates %v times", n)
	}
}

func TestCollectorCounters(t *testing.T) {
	c := NewCollector()
	c.Count("a", 2)
	c.Count("a", 3)
	c.Count("b", -1)
	if got := c.Counter("a"); got != 5 {
		t.Fatalf("counter a = %d, want 5", got)
	}
	if got := c.Counter("b"); got != -1 {
		t.Fatalf("counter b = %d, want -1", got)
	}
	if got := c.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	// A counter written only with zero is still written.
	c.Count("zero", 0)
	if ex := c.Export(); len(ex.Counters) != 3 || ex.Counters[2] != (CounterPoint{Name: "zero"}) {
		t.Fatalf("counters = %+v", ex.Counters)
	}
}

func TestCollectorHistogram(t *testing.T) {
	c := NewCollector()
	for _, v := range []float64{1, 2, 3, 10} {
		c.Observe("h", v)
	}
	h := c.Hist("h")
	if h.Count != 4 || h.Sum != 16 || h.Min != 1 || h.Max != 10 {
		t.Fatalf("hist = %+v", h)
	}
}

func TestCollectorSnapshot(t *testing.T) {
	c := NewCollector()
	c.Count("a", 7)
	c.Gauge("g", 1.5)
	c.Observe("h", 2)
	c.Observe("h", 4)
	snap := c.Snapshot()
	if snap["a"] != 7 || snap["g"] != 1.5 || snap["h"] != 3 || snap["h.count"] != 2 || len(snap) != 4 {
		t.Fatalf("snapshot = %v", snap)
	}
	// The snapshot is detached: later recording does not reach it.
	c.Count("a", 1)
	c.Gauge("g", 2)
	if snap["a"] != 7 || snap["g"] != 1.5 {
		t.Fatalf("snapshot moved with the collector: %v", snap)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Count("n", 1)
				c.Observe("h", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Counter("n"); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := c.Hist("h").Count; got != 8000 {
		t.Fatalf("concurrent hist count = %d, want 8000", got)
	}
}

func TestIndexed(t *testing.T) {
	if got := Indexed("netrun.topo", 3, "wire_bits"); got != "netrun.topo.3.wire_bits" {
		t.Fatalf("Indexed = %q", got)
	}
}

func TestProfilesCapture(t *testing.T) {
	dir := t.TempDir()
	p := &Profiles{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
		TraceFile:  filepath.Join(dir, "trace.out"),
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to say.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{p.CPUProfile, p.MemProfile, p.TraceFile} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile %s: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
}

func TestProfilesFlags(t *testing.T) {
	var p Profiles
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	p.AddFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", "a", "-memprofile", "b", "-tracefile", "c"}); err != nil {
		t.Fatal(err)
	}
	if p.CPUProfile != "a" || p.MemProfile != "b" || p.TraceFile != "c" {
		t.Fatalf("parsed = %+v", p)
	}
	// No files requested: Start/stop are no-ops.
	var none Profiles
	stop, err := none.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorExportSorted pins the exposition ordering contract:
// Export emits metrics in sorted name order, so the promtext rendering
// is deterministic regardless of map iteration order.
func TestCollectorExportSorted(t *testing.T) {
	c := NewCollector()
	for _, name := range []string{"z.last", "a.first", "m.middle", "b.second"} {
		c.Count(name, 1)
		c.Gauge(name+".gauge", 1)
		c.Observe(name+".hist", 2)
	}
	ex := c.Export()
	if len(ex.Counters) != 4 || len(ex.Gauges) != 4 || len(ex.Histograms) != 4 {
		t.Fatalf("Export = %+v", ex)
	}
	for i := 1; i < 4; i++ {
		if ex.Counters[i-1].Name >= ex.Counters[i].Name {
			t.Fatalf("Export counters unsorted at %d: %q >= %q", i, ex.Counters[i-1].Name, ex.Counters[i].Name)
		}
		if ex.Gauges[i-1].Name >= ex.Gauges[i].Name {
			t.Fatalf("Export gauges unsorted at %d", i)
		}
		if ex.Histograms[i-1].Name >= ex.Histograms[i].Name {
			t.Fatalf("Export histograms unsorted at %d", i)
		}
	}
}

// TestCollectorConcurrentHammer drives writers, one sample at a time and
// in batches, against every reader — Snapshot, Export, Counter, Hist —
// concurrently. It asserts no torn reads panic, that (under -race, as CI
// runs it) the Collector is data-race free across its whole surface, and
// that no event is lost, also where writers share a metric.
func TestCollectorConcurrentHammer(t *testing.T) {
	c := NewCollector()
	const writers, iters = 8, 500
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					_ = c.Snapshot()
				case 1:
					ex := c.Export()
					for i := 1; i < len(ex.Counters); i++ {
						if ex.Counters[i-1].Name >= ex.Counters[i].Name {
							t.Error("Export unsorted under concurrency")
							return
						}
					}
				case 2:
					_ = c.Counter("hammer.count.3")
					_ = c.Hist("hammer.hist.3")
					_ = c.Counter("hammer.shared")
					_ = c.Hist("hammer.shared_hist")
				}
			}
		}(r)
	}
	var writersWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			name := "hammer.count." + string(rune('0'+g))
			hist := "hammer.hist." + string(rune('0'+g))
			// Every writer also adds batches of samples to a histogram of
			// its own, adds to one shared counter, and records into one
			// shared histogram two samples at a time, so writers race on
			// the same metric.
			var batch []float64
			for i := 0; i < iters; i++ {
				c.Count(name, 1)
				c.Observe(hist, float64(i))
				c.Gauge("hammer.gauge", float64(i))
				if batch = append(batch, float64(i)); len(batch) == 50 || i == iters-1 {
					c.Observe(hist+".h", batch...)
					batch = batch[:0]
				}
				c.Count("hammer.shared", 1)
				c.Observe("hammer.shared_hist", 1, 1)
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	for g := 0; g < writers; g++ {
		name := "hammer.count." + string(rune('0'+g))
		hist := "hammer.hist." + string(rune('0'+g))
		if got := c.Counter(name); got != iters {
			t.Fatalf("writer %d counter %s = %d, want %d", g, name, got, iters)
		}
		for _, n := range []string{hist, hist + ".h"} {
			if h := c.Hist(n); h.Count != iters || h.Sum != iters*(iters-1)/2 {
				t.Fatalf("writer %d histogram %s = %+v, want %d samples summing to %d", g, n, h, iters, iters*(iters-1)/2)
			}
		}
	}
	const shared = writers * iters
	if got := c.Counter("hammer.shared"); got != shared {
		t.Fatalf("shared counter = %d, want %d", got, shared)
	}
	if h := c.Hist("hammer.shared_hist"); h.Count != 2*shared || h.Sum != 2*shared {
		t.Fatalf("shared histogram = %+v, want %d samples", h, 2*shared)
	}
	snap := c.Snapshot()
	if snap["hammer.shared"] != shared || snap["hammer.shared_hist.count"] != 2*shared {
		t.Fatalf("snapshot lost events: %v, %v", snap["hammer.shared"], snap["hammer.shared_hist.count"])
	}
}

// TestCollectorReadsOneInstant pins the one-instant read: a writer adds
// to a, then to b, then a sample to h, then to c, so at every instant a-b
// and h.count-c are 0 or 1, and every Export and Snapshot taken meanwhile
// must read both pairs from one instant.
func TestCollectorReadsOneInstant(t *testing.T) {
	c := NewCollector()
	const iters = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < iters; i++ {
			c.Count("a", 1)
			c.Count("b", 1)
			c.Observe("h", 1)
			c.Count("c", 1)
		}
	}()
	check := func(read string, a, b, h, cnt float64) bool {
		if d := a - b; d < 0 || d > 1 {
			t.Errorf("%s read a=%v, b=%v: not one instant", read, a, b)
			return false
		}
		if d := h - cnt; d < 0 || d > 1 {
			t.Errorf("%s read h.count=%v, c=%v: not one instant", read, h, cnt)
			return false
		}
		return true
	}
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if reads == 0 {
				t.Log("writer finished before the first read")
			}
			return
		default:
		}
		var a, b, h, cnt float64
		ex := c.Export()
		for _, p := range ex.Counters {
			switch p.Name {
			case "a":
				a = float64(p.Value)
			case "b":
				b = float64(p.Value)
			case "c":
				cnt = float64(p.Value)
			}
		}
		for _, p := range ex.Histograms {
			if p.Name == "h" {
				h = float64(p.Count)
			}
		}
		snap := c.Snapshot()
		if !check("Export", a, b, h, cnt) || !check("Snapshot", snap["a"], snap["b"], snap["h.count"], snap["c"]) {
			return
		}
	}
}

func TestLogConfig(t *testing.T) {
	var sb strings.Builder
	off := LogConfig{Level: "off"}
	logger, err := off.Logger(&sb)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("dropped")
	logger.Error("also dropped")
	if sb.Len() != 0 {
		t.Fatalf("off logger wrote: %q", sb.String())
	}

	info := LogConfig{Level: "info", Format: "json"}
	logger, err = info.Logger(&sb)
	if err != nil {
		t.Fatal(err)
	}
	logger.Debug("below level")
	logger.Info("kept", "k", "v")
	out := sb.String()
	if !strings.Contains(out, `"msg":"kept"`) || !strings.Contains(out, `"k":"v"`) {
		t.Fatalf("json log output = %q", out)
	}
	if strings.Contains(out, "below level") {
		t.Fatalf("debug record leaked at info level: %q", out)
	}

	for _, bad := range []LogConfig{{Level: "verbose"}, {Level: "info", Format: "xml"}} {
		if _, err := bad.Logger(&sb); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}

	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var cfg LogConfig
	cfg.AddFlags(fs)
	if err := fs.Parse([]string{"-log", "debug", "-logformat", "json"}); err != nil {
		t.Fatal(err)
	}
	if cfg.Level != "debug" || cfg.Format != "json" {
		t.Fatalf("parsed config = %+v", cfg)
	}
}
