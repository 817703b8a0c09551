// Package promtext renders telemetry.Collector state in the Prometheus
// text exposition format (version 0.0.4) with no dependency beyond the
// standard library. It is the serving half of the repository's accounting
// story: the paper tracks where every protocol bit goes, the Collector
// adds them up, and this writer turns a snapshot into something a stock
// Prometheus server (or curl) can scrape at /metrics.
//
// Mapping:
//
//   - Collector counters become Prometheus counters under their sanitized
//     dot-path name: "blackboard.bits" -> "blackboard_bits",
//     "netrun.topo.3.wire_bits" -> "netrun_topo_3_wire_bits".
//   - Collector gauges become Prometheus gauges the same way.
//   - Collector histograms become Prometheus histograms: cumulative
//     power-of-two "_bucket{le=...}" series (from the Collector's magnitude
//     buckets), plus "_sum" and "_count". Min and max, which Prometheus
//     histograms do not carry, are exposed as "<name>_min"/"<name>_max"
//     gauges.
//
// Every Export point is one series, and the only label is a histogram
// bucket's generated "le". Sanitization is total: any input name yields a
// valid exposition. A name is sanitized whole, braces and quotes
// included, so no name can add a label to the exposition, and a series
// whose sanitized name collides with an already-written one is skipped
// (deterministically — input is processed in the sorted order Export
// guarantees). The fuzz target pins this.
package promtext

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"broadcastic/internal/telemetry"
)

// SanitizeName maps an arbitrary metric name to a valid Prometheus metric
// name: every byte outside [a-zA-Z0-9_:] becomes '_', a leading digit is
// prefixed with '_', and the empty name becomes "_".
func SanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	b := make([]byte, 0, len(name)+1)
	if name[0] >= '0' && name[0] <= '9' {
		b = append(b, '_')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// formatValue renders a sample value the way the exposition format spells
// special floats: "NaN", "+Inf", "-Inf", else Go's shortest representation.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// writer tracks emitted series names so a second point whose name
// sanitizes to a written one (distinct dot-paths such as "a.b" and "a_b")
// is skipped, never emitted twice — duplicate series would make the
// exposition invalid.
type writer struct {
	w       io.Writer
	written int64
	series  map[string]bool
}

func (wr *writer) printf(format string, args ...any) error {
	n, err := fmt.Fprintf(wr.w, format, args...)
	wr.written += int64(n)
	return err
}

// claim reserves the series names; false means at least one is taken.
func (wr *writer) claim(names ...string) bool {
	for _, n := range names {
		if wr.series[n] {
			return false
		}
	}
	for _, n := range names {
		wr.series[n] = true
	}
	return true
}

// Write renders ex as one exposition document: counters, then gauges,
// then histograms, each in the (sorted) order Export provides; the return
// value is the byte count written.
func Write(w io.Writer, ex telemetry.Export) (int64, error) {
	wr := &writer{w: w, series: make(map[string]bool)}
	for _, c := range ex.Counters {
		name := SanitizeName(c.Name)
		if !wr.claim(name) {
			continue
		}
		if err := wr.printf("# TYPE %s counter\n%s %d\n", name, name, c.Value); err != nil {
			return wr.written, err
		}
	}
	for _, g := range ex.Gauges {
		name := SanitizeName(g.Name)
		if !wr.claim(name) {
			continue
		}
		if err := wr.printf("# TYPE %s gauge\n%s %s\n", name, name, formatValue(g.Value)); err != nil {
			return wr.written, err
		}
	}
	for _, h := range ex.Histograms {
		if err := writeHistogram(wr, h); err != nil {
			return wr.written, err
		}
	}
	return wr.written, nil
}

func writeHistogram(wr *writer, h telemetry.HistogramPoint) error {
	name := SanitizeName(h.Name)
	minName, maxName := name+"_min", name+"_max"
	// A histogram owns its base name plus the generated series.
	if !wr.claim(name, name+"_bucket", name+"_sum", name+"_count", minName, maxName) {
		return nil
	}
	if err := wr.printf("# TYPE %s histogram\n", name); err != nil {
		return err
	}
	// Cumulative buckets up to the highest populated magnitude; +Inf
	// always closes the series (required by the format). Trailing empty
	// buckets are elided to keep scrapes of sparse histograms compact.
	top := 0
	for b := 0; b < telemetry.HistBucketCount; b++ {
		if h.Buckets[b] > 0 {
			top = b
		}
	}
	var cum int64
	for b := 0; b <= top; b++ {
		cum += h.Buckets[b]
		le := formatValue(telemetry.HistBucketUpperBound(b))
		if err := wr.printf("%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	if err := wr.printf("%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, h.Count, name, formatValue(h.Sum), name, h.Count); err != nil {
		return err
	}
	// Min and max ride along as gauges.
	return wr.printf("# TYPE %s gauge\n%s %s\n# TYPE %s gauge\n%s %s\n",
		minName, minName, formatValue(h.Min), maxName, maxName, formatValue(h.Max))
}

// WriteCollector is Write over c.Export() — the one-call scrape path.
func WriteCollector(w io.Writer, c *telemetry.Collector) (int64, error) {
	return Write(w, c.Export())
}
