package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Collector is the metrics plane: in-memory, cheap enough to leave on for
// whole experiment suites, and safe for concurrent use, since the
// networked runtime records from the coordinator and every link endpoint,
// the experiment engine from every pool worker and the job service from
// every fleet worker. Counters are exact int64 sums; gauges hold the last
// level set; histograms keep streaming moments (count/sum/min/max) plus
// power-of-two magnitude buckets, so a snapshot reconstructs means and
// coarse distributions without storing samples.
//
// # Concurrency
//
// Every metric is a cell of its own: a counter is an atomic int64, a gauge
// the atomic bits of a float64, and a histogram a small struct behind its
// own lock. Names map to cells through read-mostly maps (sync.Map), so
// recording takes no lock shared across metrics: two goroutines contend
// only when they write the same metric, and then only on its cell. A
// metric's cell is made at its first use and lives as long as the
// Collector.
//
// # Handles
//
// A path that adds a sample to the same histogram on every event resolves
// its name once, with HistHandle, and then observes through the handle
// with no map lookup: one cell lock per sample, no allocation. Resolving
// a handle does not make its histogram visible; it appears in Hist,
// Snapshot and Export at its first sample, exactly as if that sample had
// gone by name. Counters have no handles: the layers that count per
// event (netrun's links and fault injectors, the blackboard) keep their
// own tallies, and a run publishes them with one Count per counter when
// it ends.
//
// # Reads
//
// Counter, Hist, Snapshot and Export read each metric atomically (a
// histogram's moments and buckets together) but not all metrics at one
// instant: a read that races with recording may see one metric before an
// event and another after it. Once recording stops, every read sees every
// event.
//
// A nil *Collector is the disabled plane: Count, Observe and Gauge do
// nothing, Counter reads 0, and the handles it resolves are nil, whose
// Observe does nothing, each at one branch.
type Collector struct {
	counters sync.Map // name -> *atomic.Int64
	gauges   sync.Map // name -> *gaugeCell
	hists    sync.Map // name -> *HistHandle
}

// HistHandle is one histogram's cell. A nil handle records nothing.
type HistHandle struct {
	mu sync.Mutex
	h  histogram
}

// Observe adds one sample to the histogram.
func (h *HistHandle) Observe(value float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.observe(value)
	h.mu.Unlock()
}

// load copies the histogram under its lock.
func (h *HistHandle) load() histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// gaugeCell holds a gauge's float64 bits.
type gaugeCell struct{ bits atomic.Uint64 }

// histBuckets spans 2^0 .. 2^62 magnitudes; bucket i counts samples with
// magnitude in [2^i, 2^(i+1)). Bucket 0 also absorbs everything below 1
// (including negatives, which the instrumented layers never emit), and
// the top bucket everything from 2^62 up.
const histBuckets = 63

type histogram struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

func (h *histogram) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// bucketOf returns the bucket of sample v: the binary exponent of its
// magnitude, read exactly off its integer part. NaN joins the sub-1
// bucket and +Inf the top one, so no sample indexes out of range.
func bucketOf(v float64) int {
	switch {
	case !(v >= 1):
		return 0
	case v >= 1<<(histBuckets-1):
		return histBuckets - 1
	}
	return bits.Len64(uint64(v)) - 1
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{}
}

// cellOf returns the cell of name in m, making it on first use.
func cellOf[T any](m *sync.Map, name string) *T {
	if v, ok := m.Load(name); ok {
		return v.(*T)
	}
	v, _ := m.LoadOrStore(name, new(T))
	return v.(*T)
}

// HistHandle returns the named histogram's handle (nil on a nil
// Collector).
func (c *Collector) HistHandle(name string) *HistHandle {
	if c == nil {
		return nil
	}
	return cellOf[HistHandle](&c.hists, name)
}

// Count adds delta to the named counter. A counter's first Count stores
// its cell with delta already in it, so no read sees the counter before
// that first write.
func (c *Collector) Count(name string, delta int64) {
	if c == nil {
		return
	}
	if v, ok := c.counters.Load(name); ok {
		v.(*atomic.Int64).Add(delta)
		return
	}
	cell := new(atomic.Int64)
	cell.Store(delta)
	if v, loaded := c.counters.LoadOrStore(name, cell); loaded {
		v.(*atomic.Int64).Add(delta)
	}
}

// Observe adds one sample to the named histogram.
func (c *Collector) Observe(name string, value float64) {
	if c == nil {
		return
	}
	c.HistHandle(name).Observe(value)
}

// Gauge sets the named gauge — a point-in-time level such as a queue
// depth or the resident cache bytes — to value, overwriting any previous
// level.
func (c *Collector) Gauge(name string, value float64) {
	if c == nil {
		return
	}
	cellOf[gaugeCell](&c.gauges, name).bits.Store(math.Float64bits(value))
}

// Counter returns the current value of a counter (0 if never written, or
// on a nil Collector).
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	if v, ok := c.counters.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// HistSummary is a histogram snapshot.
type HistSummary struct {
	Count    int64
	Sum      float64
	Min, Max float64
}

// Hist returns a snapshot of the named histogram (zero value if never
// written, or on a nil Collector).
func (c *Collector) Hist(name string) HistSummary {
	if c == nil {
		return HistSummary{}
	}
	v, ok := c.hists.Load(name)
	if !ok {
		return HistSummary{}
	}
	h := v.(*HistHandle).load()
	return HistSummary{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
}

// rangeCells calls counter with every counter written so far, then gauge
// with every gauge set, then hist with every histogram observed, each
// metric read atomically, in no order within a kind.
func (c *Collector) rangeCells(counter func(string, int64), gauge func(string, float64), hist func(string, *histogram)) {
	c.counters.Range(func(k, v any) bool {
		counter(k.(string), v.(*atomic.Int64).Load())
		return true
	})
	c.gauges.Range(func(k, v any) bool {
		gauge(k.(string), math.Float64frombits(v.(*gaugeCell).bits.Load()))
		return true
	})
	c.hists.Range(func(k, v any) bool {
		if h := v.(*HistHandle).load(); h.count > 0 {
			hist(k.(string), &h)
		}
		return true
	})
}

// Snapshot flattens the collector into a name -> value map: counters and
// gauges as exact values, histograms as their means under "<name>" with
// "<name>.count" alongside. Where a gauge or histogram shares a counter's
// name, the later kind in that order wins. The map is detached from the
// collector; each metric in it was read atomically, but not all at one
// instant (see the Collector doc).
func (c *Collector) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	c.rangeCells(
		func(name string, v int64) { out[name] = float64(v) },
		func(name string, v float64) { out[name] = v },
		func(name string, h *histogram) {
			out[name] = h.sum / float64(h.count)
			out[name+".count"] = float64(h.count)
		})
	return out
}

// HistBucketCount is the number of power-of-two histogram buckets a
// Collector keeps per histogram (see the histBuckets comment).
const HistBucketCount = histBuckets

// HistBucketUpperBound returns the exclusive upper edge of bucket i:
// bucket i counts samples in [2^i, 2^(i+1)), with bucket 0 additionally
// absorbing everything below 1. Exposition formats that want cumulative
// (Prometheus-style) buckets treat the returned value as the "le" bound.
func HistBucketUpperBound(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return float64(uint64(1) << uint(i+1))
}

// CounterPoint is one counter in an Export.
type CounterPoint struct {
	Name  string
	Value int64
}

// GaugePoint is one gauge in an Export.
type GaugePoint struct {
	Name  string
	Value float64
}

// HistogramPoint is one histogram in an Export: streaming moments plus the
// raw (non-cumulative) power-of-two bucket counts.
type HistogramPoint struct {
	Name     string
	Count    int64
	Sum      float64
	Min, Max float64
	Buckets  [HistBucketCount]int64
}

// Export is a full-fidelity, detached snapshot of a Collector. Both slices
// are sorted by name, so consumers (the Prometheus exposition writer, test
// goldens, dashboards) render deterministically from identical states.
type Export struct {
	Counters   []CounterPoint
	Gauges     []GaugePoint
	Histograms []HistogramPoint
}

// Export snapshots every counter, gauge and histogram in sorted name
// order. The result is detached: later recording does not mutate it. Each
// metric in it was read atomically, but not all at one instant (see the
// Collector doc).
func (c *Collector) Export() Export {
	ex := Export{Counters: []CounterPoint{}, Gauges: []GaugePoint{}, Histograms: []HistogramPoint{}}
	c.rangeCells(
		func(name string, v int64) { ex.Counters = append(ex.Counters, CounterPoint{Name: name, Value: v}) },
		func(name string, v float64) { ex.Gauges = append(ex.Gauges, GaugePoint{Name: name, Value: v}) },
		func(name string, h *histogram) {
			ex.Histograms = append(ex.Histograms, HistogramPoint{
				Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: h.buckets})
		})
	sort.Slice(ex.Counters, func(i, j int) bool { return ex.Counters[i].Name < ex.Counters[j].Name })
	sort.Slice(ex.Gauges, func(i, j int) bool { return ex.Gauges[i].Name < ex.Gauges[j].Name })
	sort.Slice(ex.Histograms, func(i, j int) bool { return ex.Histograms[i].Name < ex.Histograms[j].Name })
	return ex
}
