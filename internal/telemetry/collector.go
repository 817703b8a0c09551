package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Collector is the standard Recorder: thread-safe, in-memory, and cheap
// enough to leave on for whole experiment suites. Counters are exact
// int64 sums; histograms keep streaming moments (count/sum/min/max) plus
// power-of-two magnitude buckets, so a snapshot reconstructs means and
// coarse distributions without storing samples.
type Collector struct {
	mu     sync.Mutex
	counts map[string]int64
	gauges map[string]float64
	hists  map[string]*histogram
}

// histBuckets spans 2^0 .. 2^62 magnitudes; bucket i counts samples with
// magnitude in [2^i, 2^(i+1)). Bucket 0 also absorbs everything below 1
// (including negatives, which the instrumented layers never emit).
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
	// Bucket selection must never index out of range, even for values the
	// instrumented layers never emit: converting NaN or ±Inf to int is
	// platform-defined in Go (a huge negative on amd64), so both are pinned
	// explicitly — NaN joins the sub-1 bucket, +Inf the top one.
	i := 0
	if v >= 1 {
		if math.IsInf(v, 1) {
			i = histBuckets - 1
		} else {
			i = int(math.Log2(v))
			if i >= histBuckets {
				i = histBuckets - 1
			}
			if i < 0 {
				i = 0
			}
		}
	}
	h.buckets[i]++
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{
		counts: make(map[string]int64),
		gauges: make(map[string]float64),
		hists:  make(map[string]*histogram),
	}
}

// Count implements Recorder.
func (c *Collector) Count(name string, delta int64) {
	c.mu.Lock()
	c.counts[name] += delta
	c.mu.Unlock()
}

// Observe implements Recorder.
func (c *Collector) Observe(name string, value float64) {
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		h = &histogram{}
		c.hists[name] = h
	}
	h.observe(value)
	c.mu.Unlock()
}

// Gauge implements GaugeRecorder: the named gauge is set to value,
// overwriting any previous level.
func (c *Collector) Gauge(name string, value float64) {
	c.mu.Lock()
	c.gauges[name] = value
	c.mu.Unlock()
}

var (
	_ Recorder      = (*Collector)(nil)
	_ GaugeRecorder = (*Collector)(nil)
)

// Counter returns the current value of a counter (0 if never written).
func (c *Collector) Counter(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[name]
}

// HistSummary is a histogram snapshot.
type HistSummary struct {
	Count    int64
	Sum      float64
	Min, Max float64
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (h HistSummary) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Hist returns a snapshot of the named histogram (zero value if never
// written).
func (c *Collector) Hist(name string) HistSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hists[name]
	if h == nil {
		return HistSummary{}
	}
	return HistSummary{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
}

// Snapshot flattens the collector into a name -> value map: counters and
// gauges as exact values, histograms as their means under "<name>" with
// "<name>.count" alongside. The map is detached from the collector.
func (c *Collector) Snapshot() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.counts)+len(c.gauges)+2*len(c.hists))
	for name, v := range c.counts {
		out[name] = float64(v)
	}
	for name, v := range c.gauges {
		out[name] = v
	}
	for name, h := range c.hists {
		if h.count == 0 {
			continue
		}
		out[name] = h.sum / float64(h.count)
		out[name+".count"] = float64(h.count)
	}
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
// order. The result is detached: later recording does not mutate it.
func (c *Collector) Export() Export {
	c.mu.Lock()
	ex := Export{
		Counters:   make([]CounterPoint, 0, len(c.counts)),
		Gauges:     make([]GaugePoint, 0, len(c.gauges)),
		Histograms: make([]HistogramPoint, 0, len(c.hists)),
	}
	for name, v := range c.counts {
		ex.Counters = append(ex.Counters, CounterPoint{Name: name, Value: v})
	}
	for name, v := range c.gauges {
		ex.Gauges = append(ex.Gauges, GaugePoint{Name: name, Value: v})
	}
	for name, h := range c.hists {
		hp := HistogramPoint{Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		hp.Buckets = h.buckets
		ex.Histograms = append(ex.Histograms, hp)
	}
	c.mu.Unlock()
	sort.Slice(ex.Counters, func(i, j int) bool { return ex.Counters[i].Name < ex.Counters[j].Name })
	sort.Slice(ex.Gauges, func(i, j int) bool { return ex.Gauges[i].Name < ex.Gauges[j].Name })
	sort.Slice(ex.Histograms, func(i, j int) bool { return ex.Histograms[i].Name < ex.Histograms[j].Name })
	return ex
}

// Reset clears all counters, gauges and histograms.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.counts = make(map[string]int64)
	c.gauges = make(map[string]float64)
	c.hists = make(map[string]*histogram)
	c.mu.Unlock()
}

// WriteTo renders a sorted human-readable dump — counters, then gauges,
// then histograms with count/mean/min/max — and implements io.WriterTo.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	c.mu.Lock()
	counts := make(map[string]int64, len(c.counts))
	for k, v := range c.counts {
		counts[k] = v
	}
	gauges := make(map[string]float64, len(c.gauges))
	for k, v := range c.gauges {
		gauges[k] = v
	}
	hists := make(map[string]HistSummary, len(c.hists))
	for k, h := range c.hists {
		hists[k] = HistSummary{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	}
	c.mu.Unlock()

	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if err := emit("%-40s %d\n", k, counts[k]); err != nil {
			return total, err
		}
	}
	names = names[:0]
	for k := range gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if err := emit("%-40s gauge=%g\n", k, gauges[k]); err != nil {
			return total, err
		}
	}
	names = names[:0]
	for k := range hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := hists[k]
		if err := emit("%-40s n=%d mean=%.1f min=%.1f max=%.1f\n", k, h.Count, h.Mean(), h.Min, h.Max); err != nil {
			return total, err
		}
	}
	return total, nil
}
