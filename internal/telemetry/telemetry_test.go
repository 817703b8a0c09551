package telemetry

import (
	"flag"
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
	c.Gauge("x", 1)
	if got := c.Counter("x"); got != 0 {
		t.Fatalf("nil collector counter = %d, want 0", got)
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

// TestCollectorConcurrentHammer drives writers against every reader —
// Snapshot, Export, Counter, Hist — concurrently. It asserts no torn
// reads panic, that (under -race, as CI runs it) the Collector is
// data-race free across its whole surface, and that no event is lost.
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
			for i := 0; i < iters; i++ {
				c.Count(name, 1)
				c.Observe(hist, float64(i))
				c.Gauge("hammer.gauge", float64(i))
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	for g := 0; g < writers; g++ {
		if got := c.Counter("hammer.count." + string(rune('0'+g))); got != iters {
			t.Fatalf("writer %d counter = %d, want %d", g, got, iters)
		}
		if got := c.Hist("hammer.hist." + string(rune('0'+g))).Count; got != iters {
			t.Fatalf("writer %d histogram count = %d, want %d", g, got, iters)
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
