// Package telemetry is the repository's zero-dependency instrumentation
// layer: named counters, histograms and span-style timings that the three
// execution layers (the sequential blackboard runtime, the concurrent
// networked runtime, and the experiment harness) report into a single
// Recorder.
//
// The paper this repository reproduces is about *accounting* — where the
// bits of a protocol go, per player and per round (Braverman & Oshman,
// PODC'15) — and the related message-passing literature accounts per link.
// This package makes that accounting observable at runtime without
// perturbing it: recording is strictly opt-in, every instrumented call
// site goes through the nil-safe package helpers below, and a nil Recorder
// costs exactly one predictable branch. The conformance suites pin that an
// enabled Recorder changes no transcript, table or experiment output bit.
//
// Metric names are dot-separated paths (e.g. "blackboard.bits",
// "netrun.topo.3.wire_bits"); per-entity metrics embed the entity index so
// a flat snapshot still reads as a breakdown. The canonical names emitted
// by the instrumented layers are declared in names.go.
package telemetry

import (
	"strconv"
	"strings"
	"time"
)

// Recorder collects instrumentation events. Implementations must be safe
// for concurrent use: the networked runtime records from the coordinator
// and every player goroutine, and the experiment engine records from every
// pool worker.
//
// All call sites in this repository go through the nil-safe package
// helpers (Count, Observe, StartSpan), so a nil Recorder disables
// collection at the cost of one branch per event.
type Recorder interface {
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Observe adds one sample to the named histogram.
	Observe(name string, value float64)
}

// GaugeRecorder is the optional gauge extension of Recorder: a gauge is a
// point-in-time level (queue depth, cache hit ratio, resident bytes) that
// Set overwrites rather than accumulates. Recorders that do not implement
// it simply never see gauge values — the package helper type-asserts, so
// existing Recorder implementations stay valid.
type GaugeRecorder interface {
	Recorder
	// Gauge sets the named gauge to value.
	Gauge(name string, value float64)
}

// Count adds delta to the named counter, or does nothing when r is nil.
func Count(r Recorder, name string, delta int64) {
	if r != nil {
		r.Count(name, delta)
	}
}

// Gauge sets the named gauge when r implements GaugeRecorder, and does
// nothing otherwise (including for nil r).
func Gauge(r Recorder, name string, value float64) {
	if g, ok := r.(GaugeRecorder); ok {
		g.Gauge(name, value)
	}
}

// Observe adds one histogram sample, or does nothing when r is nil.
func Observe(r Recorder, name string, value float64) {
	if r != nil {
		r.Observe(name, value)
	}
}

// Multi fans every event out to all non-nil recorders, letting one run
// feed several sinks at once (e.g. an aggregating Collector plus a
// tracelog run trace). It flattens trivial cases so the hot-path helpers
// keep their single-branch disabled cost: no live recorders yields nil,
// exactly one yields that recorder unwrapped.
func Multi(rs ...Recorder) Recorder {
	live := make(multi, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}

type multi []Recorder

func (m multi) Count(name string, delta int64) {
	for _, r := range m {
		r.Count(name, delta)
	}
}

func (m multi) Observe(name string, value float64) {
	for _, r := range m {
		r.Observe(name, value)
	}
}

// Gauge forwards to every member that implements GaugeRecorder, so a
// Multi chain never swallows gauge values on the way to a Collector.
func (m multi) Gauge(name string, value float64) {
	for _, r := range m {
		if g, ok := r.(GaugeRecorder); ok {
			g.Gauge(name, value)
		}
	}
}

// Span is an in-flight timed region started by StartSpan. The zero Span
// (from a nil Recorder) is inert: End returns immediately.
type Span struct {
	rec   Recorder
	name  string
	start time.Time
}

// StartSpan begins a timed region that End reports as a histogram sample
// of nanoseconds under the span's name. With a nil Recorder it returns the
// inert zero Span without reading the clock.
func StartSpan(r Recorder, name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, name: name, start: time.Now()}
}

// End closes the span, recording its duration in nanoseconds.
func (s Span) End() {
	if s.rec == nil {
		return
	}
	s.rec.Observe(s.name, float64(time.Since(s.start)))
}

// Indexed renders a per-entity metric name, e.g. Indexed("netrun.topo",
// 3, "wire_bits") -> "netrun.topo.3.wire_bits". Only recording paths call
// it, so the formatting cost is paid exclusively when a Recorder is
// installed.
func Indexed(prefix string, index int, field string) string {
	return prefix + "." + strconv.Itoa(index) + "." + field
}

// Labeled renders a labeled metric name in the canonical encoded form the
// promtext writer parses back into Prometheus label sets:
//
//	Labeled("jobs.queue_depth", "tenant", "t1") -> `jobs.queue_depth{tenant="t1"}`
//
// kv is key/value pairs; pairs are sorted by key so equal label sets
// always encode identically, and values are escaped (backslash, quote,
// newline) so any tenant string round-trips. A trailing odd key is
// ignored. Callers cache the result per entity — like Indexed, this is a
// recording-path helper.
func Labeled(name string, kv ...string) string {
	n := len(kv) / 2 * 2
	if n == 0 {
		return name
	}
	// Insertion-sort the pairs by key; label sets are tiny.
	pairs := make([][2]string, 0, n/2)
	for i := 0; i < n; i += 2 {
		pairs = append(pairs, [2]string{kv[i], kv[i+1]})
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j][0] < pairs[j-1][0]; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p[0])
		b.WriteString(`="`)
		for k := 0; k < len(p[1]); k++ {
			switch c := p[1][k]; c {
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
	b.WriteByte('}')
	return b.String()
}
