package telemetry

import (
	"math/bits"
	"sort"
	"sync"
)

// Collector is the metrics plane: in-memory, cheap enough to leave on for
// whole experiment suites, and safe for concurrent use, since the
// networked runtime publishes from every run, the experiment engine from
// every pool worker and the job service from every fleet worker. Counters
// are exact int64 sums; gauges hold the last level set; histograms keep
// streaming moments (count/sum/min/max) plus power-of-two magnitude
// buckets, so a snapshot reconstructs means and coarse distributions
// without storing samples.
//
// # One write path
//
// Every metric is written by name, under one mutex that guards the
// counters, the gauges and the histograms alike. Traffic by name is light
// because no layer writes per event: the layers that count or time per
// event (netrun's links and turns, the blackboard) keep their own ledger
// and publish it when a run ends, with one Count per counter and one
// Observe per histogram, which takes all of the run's samples at once. So
// a metric is written at most once per sweep cell, estimator shard, job
// or run.
//
// Snapshot and Export read every metric under the mutex, so they see what
// was recorded at one instant.
//
// A live Collector comes from NewCollector, which makes its maps. A nil
// *Collector is the disabled plane: Count, Observe and Gauge do nothing
// and Counter reads 0, each at one branch.
type Collector struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram
}

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
	return &Collector{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histogram),
	}
}

// Count adds delta to the named counter.
func (c *Collector) Count(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Observe adds values to the named histogram, in one step under the
// mutex, so Snapshot and Export see all of them or none. With no values it
// records nothing and creates no series.
func (c *Collector) Observe(name string, values ...float64) {
	if c == nil || len(values) == 0 {
		return
	}
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		h = new(histogram)
		c.hists[name] = h
	}
	for _, v := range values {
		h.observe(v)
	}
	c.mu.Unlock()
}

// Gauge sets the named gauge — a point-in-time level such as a queue
// depth or the resident cache bytes — to value, overwriting any previous
// level.
func (c *Collector) Gauge(name string, value float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gauges[name] = value
	c.mu.Unlock()
}

// Counter returns the current value of a counter (0 if never written, or
// on a nil Collector).
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
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
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hists[name]
	if h == nil {
		return HistSummary{}
	}
	return HistSummary{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
}

// rangeMetrics calls counter with every counter written so far, then
// gauge with every gauge set, then hist with every histogram observed, in
// no order within a kind. It holds the mutex throughout, so the metrics it
// passes on are those of one instant.
func (c *Collector) rangeMetrics(counter func(string, int64), gauge func(string, float64), hist func(string, *histogram)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, v := range c.counters {
		counter(name, v)
	}
	for name, v := range c.gauges {
		gauge(name, v)
	}
	for name, h := range c.hists {
		hist(name, h)
	}
}

// Snapshot flattens the collector into a name -> value map: counters and
// gauges as exact values, histograms as their means under "<name>" with
// "<name>.count" alongside. Where a gauge or histogram shares a counter's
// name, the later kind in that order wins. The map is detached from the
// collector, and was read at one instant.
func (c *Collector) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	c.rangeMetrics(
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
// order. The result is detached: later recording does not mutate it, and
// it was read at one instant.
func (c *Collector) Export() Export {
	ex := Export{Counters: []CounterPoint{}, Gauges: []GaugePoint{}, Histograms: []HistogramPoint{}}
	c.rangeMetrics(
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
