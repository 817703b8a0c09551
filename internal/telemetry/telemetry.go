// Package telemetry is the repository's zero-dependency instrumentation
// layer: named counters, histograms and gauges that the execution layers
// (the networked runtime, the estimators, the experiment harness and the
// job service) report into a single *Collector. Durations are not
// measured here: every *_ns
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
// or to pay one branch for several events. A layer that counts or times
// per event keeps its own ledger and publishes it once: a networked run
// its Stats, board and latency samples when it ends, so its metrics appear
// then, not frame by frame. Every metric is written by name, which leaves
// a live Collector light traffic that one mutex serves (see Collector).
// The conformance suites pin that a live Collector changes no transcript,
// table or experiment output bit.
//
// Metric names are dot-separated paths (e.g. "blackboard.bits",
// "netrun.topo.3.wire_bits"); per-entity metrics embed the entity index so
// a flat snapshot still reads as a breakdown. The canonical names emitted
// by the instrumented layers are declared in names.go.
package telemetry

import "strconv"

// Indexed renders a per-entity metric name, e.g. Indexed("netrun.topo",
// 3, "wire_bits") -> "netrun.topo.3.wire_bits". Only recording paths call
// it, so the formatting cost is paid exclusively when a Collector is
// installed.
func Indexed(prefix string, index int, field string) string {
	return prefix + "." + strconv.Itoa(index) + "." + field
}
