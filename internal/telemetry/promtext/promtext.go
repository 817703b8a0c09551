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
//   - Names carrying an encoded label block (telemetry.Labeled:
//     `jobs.queue_depth{tenant="t1"}`) become labeled series of their base
//     family: `jobs_queue_depth{tenant="t1"}`. All series of a family
//     render consecutively under one TYPE line, as the format requires;
//     histogram label sets merge with the generated "le" label (a
//     user-supplied "le" key is renamed "le_" so bucket lines stay valid).
//
// Sanitization is total: any input name yields a valid exposition. A name
// whose label block does not parse back (unbalanced braces, bad escapes,
// duplicate keys) falls back to whole-name sanitization, and families
// whose sanitized names would collide with an already-written family are
// skipped (deterministically — input is processed in the sorted order
// Export guarantees). The fuzz target pins this.
package promtext

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

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

// sanitizeLabelKey maps an arbitrary label key to a valid Prometheus
// label name ([a-zA-Z_][a-zA-Z0-9_]* — no colon, unlike metric names).
func sanitizeLabelKey(key string) string {
	if key == "" {
		return "_"
	}
	b := make([]byte, 0, len(key)+1)
	if key[0] >= '0' && key[0] <= '9' {
		b = append(b, '_')
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// label is one parsed label pair: sanitized key, raw (unescaped) value.
type label struct {
	key, val string
}

// parseName splits a metric name into its base and an optional encoded
// label block (the telemetry.Labeled form). ok=false means the name
// contains a '{' but no well-formed trailing label block — callers then
// fall back to sanitizing the whole name. Keys come back sanitized and
// duplicate-free; values come back unescaped.
func parseName(name string) (base string, labels []label, ok bool) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, nil, true
	}
	if name[len(name)-1] != '}' {
		return "", nil, false
	}
	base = name[:i]
	body := name[i+1 : len(name)-1]
	if body == "" {
		return base, nil, true
	}
	seen := make(map[string]bool, 2)
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return "", nil, false
		}
		key := sanitizeLabelKey(body[:eq])
		if seen[key] {
			return "", nil, false
		}
		seen[key] = true
		// Scan the quoted value, unescaping \\ \" \n; any other escape or
		// an unterminated quote invalidates the block.
		var val strings.Builder
		j := eq + 2
		closed := false
	scan:
		for j < len(body) {
			switch c := body[j]; c {
			case '"':
				closed = true
				j++
				break scan
			case '\\':
				if j+1 >= len(body) {
					return "", nil, false
				}
				switch body[j+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", nil, false
				}
				j += 2
			default:
				val.WriteByte(c)
				j++
			}
		}
		if !closed {
			return "", nil, false
		}
		labels = append(labels, label{key: key, val: val.String()})
		body = body[j:]
		if body != "" {
			if body[0] != ',' || len(body) == 1 {
				return "", nil, false
			}
			body = body[1:]
		}
	}
	return base, labels, true
}

// renderLabels renders a label block ({k="v",...}) with values escaped,
// or "" for an empty set. extra appends generated labels (the histogram
// "le" bound) after the parsed ones.
func renderLabels(labels []label, extra ...label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	emit := func(l label) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(l.key)
		b.WriteString(`="`)
		for i := 0; i < len(l.val); i++ {
			switch c := l.val[i]; c {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
	}
	for _, l := range labels {
		emit(l)
	}
	for _, l := range extra {
		emit(l)
	}
	b.WriteByte('}')
	return b.String()
}

// splitSeries resolves a raw metric name into its family name and parsed
// labels. forHistogram renames a user "le" key to "le_" so the generated
// bucket label never collides.
func splitSeries(raw string, forHistogram bool) (family string, labels []label) {
	base, labels, ok := parseName(raw)
	if !ok {
		return SanitizeName(raw), nil
	}
	if forHistogram {
		for i := range labels {
			if labels[i].key == "le" {
				labels[i].key = "le_"
			}
		}
	}
	return SanitizeName(base), labels
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

// writer tracks emitted family names so duplicate families (distinct
// dot-paths that sanitize to the same name) are skipped, never emitted
// twice — duplicate series would make the exposition invalid.
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

// claim reserves the family names; false means at least one is taken.
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

// family groups the label variants of one sanitized family name so they
// render consecutively under a single TYPE line (the format forbids
// interleaving a family's series with other families).
type family[T any] struct {
	name   string
	labels []string // rendered label blocks, "" for the unlabeled series
	values []T
}

// groupSeries folds sorted (name, value) points into families in first-
// appearance order, deduplicating identical rendered series (first wins —
// deterministic because Export sorts by raw name).
func groupSeries[T any](n int, nameAt func(int) string, valueAt func(int) T, forHistogram bool) []*family[T] {
	var fams []*family[T]
	index := make(map[string]*family[T], n)
	for i := 0; i < n; i++ {
		famName, labels := splitSeries(nameAt(i), forHistogram)
		rendered := renderLabels(labels)
		f := index[famName]
		if f == nil {
			f = &family[T]{name: famName}
			index[famName] = f
			fams = append(fams, f)
		}
		dup := false
		for _, l := range f.labels {
			if l == rendered {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		f.labels = append(f.labels, rendered)
		f.values = append(f.values, valueAt(i))
	}
	return fams
}

// Write renders ex as one exposition document: counters, then gauges,
// then histograms, families in the (sorted) order Export provides; the
// return value is the byte count written.
func Write(w io.Writer, ex telemetry.Export) (int64, error) {
	wr := &writer{w: w, series: make(map[string]bool)}
	counterFams := groupSeries(len(ex.Counters),
		func(i int) string { return ex.Counters[i].Name },
		func(i int) int64 { return ex.Counters[i].Value }, false)
	for _, f := range counterFams {
		if !wr.claim(f.name) {
			continue
		}
		if err := wr.printf("# TYPE %s counter\n", f.name); err != nil {
			return wr.written, err
		}
		for i, labels := range f.labels {
			if err := wr.printf("%s%s %d\n", f.name, labels, f.values[i]); err != nil {
				return wr.written, err
			}
		}
	}
	gaugeFams := groupSeries(len(ex.Gauges),
		func(i int) string { return ex.Gauges[i].Name },
		func(i int) float64 { return ex.Gauges[i].Value }, false)
	for _, f := range gaugeFams {
		if !wr.claim(f.name) {
			continue
		}
		if err := wr.printf("# TYPE %s gauge\n", f.name); err != nil {
			return wr.written, err
		}
		for i, labels := range f.labels {
			if err := wr.printf("%s%s %s\n", f.name, labels, formatValue(f.values[i])); err != nil {
				return wr.written, err
			}
		}
	}
	histFams := groupSeries(len(ex.Histograms),
		func(i int) string { return ex.Histograms[i].Name },
		func(i int) telemetry.HistogramPoint { return ex.Histograms[i] }, true)
	for _, f := range histFams {
		if err := writeHistogramFamily(wr, f); err != nil {
			return wr.written, err
		}
	}
	return wr.written, nil
}

func writeHistogramFamily(wr *writer, f *family[telemetry.HistogramPoint]) error {
	name := f.name
	minName, maxName := name+"_min", name+"_max"
	// A histogram family owns its base name plus the generated series.
	if !wr.claim(name, name+"_bucket", name+"_sum", name+"_count", minName, maxName) {
		return nil
	}
	if err := wr.printf("# TYPE %s histogram\n", name); err != nil {
		return err
	}
	for i, labels := range f.labels {
		h := f.values[i]
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
			if err := wr.printf("%s_bucket%s %d\n", name, withLe(labels, le), cum); err != nil {
				return err
			}
		}
		if err := wr.printf("%s_bucket%s %d\n", name, withLe(labels, "+Inf"), h.Count); err != nil {
			return err
		}
		if err := wr.printf("%s_sum%s %s\n%s_count%s %d\n",
			name, labels, formatValue(h.Sum), name, labels, h.Count); err != nil {
			return err
		}
	}
	// Min and max ride along as gauges with the same label sets.
	for _, g := range []struct {
		name string
		get  func(telemetry.HistogramPoint) float64
	}{
		{minName, func(h telemetry.HistogramPoint) float64 { return h.Min }},
		{maxName, func(h telemetry.HistogramPoint) float64 { return h.Max }},
	} {
		if err := wr.printf("# TYPE %s gauge\n", g.name); err != nil {
			return err
		}
		for i, labels := range f.labels {
			if err := wr.printf("%s%s %s\n", g.name, labels, formatValue(g.get(f.values[i]))); err != nil {
				return err
			}
		}
	}
	return nil
}

// withLe merges the generated le label into a rendered label block.
func withLe(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WriteCollector is Write over c.Export() — the one-call scrape path.
func WriteCollector(w io.Writer, c *telemetry.Collector) (int64, error) {
	return Write(w, c.Export())
}
