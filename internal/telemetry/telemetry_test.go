package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestNilSafeHelpers(t *testing.T) {
	// Must not panic and must not record anywhere.
	Count(nil, "x", 1)
	Observe(nil, "x", 1)
	Gauge(nil, "x", 1)
}

func TestCollectorCounters(t *testing.T) {
	c := NewCollector()
	Count(c, "a", 2)
	Count(c, "a", 3)
	Count(c, "b", -1)
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
		Observe(c, "h", v)
	}
	h := c.Hist("h")
	if h.Count != 4 || h.Sum != 16 || h.Min != 1 || h.Max != 10 {
		t.Fatalf("hist = %+v", h)
	}
	if h.Mean() != 4 {
		t.Fatalf("mean = %v, want 4", h.Mean())
	}
	if (HistSummary{}).Mean() != 0 {
		t.Fatal("empty histogram mean should be 0")
	}
}

func TestCollectorSnapshotAndReset(t *testing.T) {
	c := NewCollector()
	Count(c, "a", 7)
	Observe(c, "h", 2)
	Observe(c, "h", 4)
	snap := c.Snapshot()
	if snap["a"] != 7 || snap["h"] != 3 || snap["h.count"] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	c.Reset()
	if got := c.Snapshot(); len(got) != 0 {
		t.Fatalf("snapshot after reset = %v", got)
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

func TestCollectorWriteTo(t *testing.T) {
	c := NewCollector()
	Count(c, "a.counter", 5)
	Observe(c, "b.hist", 2)
	var sb strings.Builder
	if _, err := c.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "a.counter") || !strings.Contains(out, "b.hist") {
		t.Fatalf("dump missing entries:\n%s", out)
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

// TestCollectorExportAndWriteToSorted pins the exposition ordering
// contract: Export and WriteTo emit metrics in sorted name order, so every
// downstream rendering (promtext, dumps, benchjson) is deterministic
// regardless of map iteration order.
func TestCollectorExportAndWriteToSorted(t *testing.T) {
	c := NewCollector()
	for _, name := range []string{"z.last", "a.first", "m.middle", "b.second"} {
		c.Count(name, 1)
		c.Observe(name+".hist", 2)
	}
	ex := c.Export()
	for i := 1; i < len(ex.Counters); i++ {
		if ex.Counters[i-1].Name >= ex.Counters[i].Name {
			t.Fatalf("Export counters unsorted at %d: %q >= %q", i, ex.Counters[i-1].Name, ex.Counters[i].Name)
		}
	}
	for i := 1; i < len(ex.Histograms); i++ {
		if ex.Histograms[i-1].Name >= ex.Histograms[i].Name {
			t.Fatalf("Export histograms unsorted at %d", i)
		}
	}
	var a, b strings.Builder
	if _, err := c.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteTo is not deterministic across calls")
	}
	if !strings.Contains(a.String(), "a.first") {
		t.Fatalf("dump missing entries:\n%s", a.String())
	}
	idx := func(name string) int { return strings.Index(a.String(), name) }
	if !(idx("a.first") < idx("b.second") && idx("b.second") < idx("m.middle") && idx("m.middle") < idx("z.last")) {
		t.Fatalf("WriteTo counters not in sorted order:\n%s", a.String())
	}
}

// TestCollectorConcurrentHammer drives writers against every reader —
// Snapshot, Export, WriteTo, Counter, Hist — and Reset, concurrently. It
// asserts no torn reads panic and (under -race, as CI runs it) that the
// Collector is data-race free across its whole surface.
func TestCollectorConcurrentHammer(t *testing.T) {
	c := NewCollector()
	const writers, iters = 8, 500
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
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
					var sb strings.Builder
					if _, err := c.WriteTo(&sb); err != nil {
						t.Errorf("WriteTo under concurrency: %v", err)
						return
					}
				case 3:
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
				if i%100 == 99 && g == 0 {
					c.Reset()
				}
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	// After the dust settles the collector still works.
	c.Reset()
	c.Count("after", 1)
	if c.Counter("after") != 1 {
		t.Fatal("collector unusable after hammer")
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing should be nil")
	}
	a := NewCollector()
	if got := Multi(nil, a, nil); got != Recorder(a) {
		t.Fatal("Multi of one recorder should unwrap it")
	}
	b := NewCollector()
	m := Multi(a, b)
	m.Count("x", 3)
	m.Observe("h", 2)
	for _, c := range []*Collector{a, b} {
		if c.Counter("x") != 3 || c.Hist("h").Count != 1 {
			t.Fatalf("fan-out missed a recorder: %v", c.Snapshot())
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
