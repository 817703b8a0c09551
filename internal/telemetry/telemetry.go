// Package telemetry is the repository's zero-dependency instrumentation
// layer: named counters, histograms and gauges that the execution layers
// (the networked runtime's board stepper and wire endpoints, the
// estimators, the experiment harness and the job service) report into a
// single *Collector. Durations are not measured here: every *_ns
// histogram observes the value a causal span's End returns (see package
// causal), so a metric and the span it summarizes agree exactly.
//
// The paper this repository reproduces is about *accounting* — where the
// bits of a protocol go, per player and per round (Braverman & Oshman,
// PODC'15) — and the related message-passing literature accounts per link.
// This package makes that accounting observable at runtime without
// perturbing it: recording is strictly opt-in, and a nil *Collector is
// the disabled plane — Count, Observe, Gauge and Counter return at one
// predictable branch on a nil receiver, so a call site needs no guard.
// The hot paths that keep one do so to skip formatting a per-entity name,
// or to pay one branch for several events. A live Collector takes no lock
// shared across metrics, and hot paths record through handles resolved
// once per run (see Collector). The conformance suites pin that a live
// Collector changes no transcript, table or experiment output bit.
//
// Metric names are dot-separated paths (e.g. "blackboard.bits",
// "netrun.topo.3.wire_bits"); per-entity metrics embed the entity index so
// a flat snapshot still reads as a breakdown. The canonical names emitted
// by the instrumented layers are declared in names.go.
package telemetry

import (
	"strconv"
	"strings"
)

// Indexed renders a per-entity metric name, e.g. Indexed("netrun.topo",
// 3, "wire_bits") -> "netrun.topo.3.wire_bits". Only recording paths call
// it, so the formatting cost is paid exclusively when a Collector is
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
