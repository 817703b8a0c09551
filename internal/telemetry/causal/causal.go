// Package causal is the repository's trace-context layer: it gives every
// job and experiment run a TraceID, every phase a SpanID with an explicit
// parent link, and records the resulting span/event tree into a bounded
// in-memory flight recorder (recorder.go) that can be dumped as NDJSON —
// per run, after the fact, without any external tracing dependency.
//
// Where the telemetry package answers "how much" (aggregate counters and
// histograms), this package answers "what happened to *this* run": which
// tenant submitted it, how long it queued, which estimator shards it ran,
// which network hops retried, and — for faulted runs — the instant of every
// injected fault and crash, all under one trace ID.
//
// # Propagation
//
// A Context value is the unit of propagation. It is carried by struct
// fields (sim.Config.Causal, core.EstimateOptions.Causal,
// netrun.Config.Causal, jobs.RunContext.Causal) — never by a package
// global — so concurrent runs cannot contaminate each other's traces. The
// zero Context is disabled: every method is an inert no-op costing one
// branch, exactly like a nil *telemetry.Collector.
//
// # Timing
//
// A Span is the repository's one stopwatch. End returns the End − Start it
// records, and every duration histogram of the metrics plane (sim.cell_ns,
// core.cic.shard_ns, netrun.ack_ns, ...) observes exactly that value, so a
// span's record and its histogram sample can never disagree. A span is
// timed when its Context records or when its caller passes the layer's
// metrics Collector; otherwise it reads no clock and allocates nothing.
//
// Recording is strictly observational: spans read the clock and nothing
// else, so transcripts, tables and RNG streams are byte-identical with
// tracing enabled — pinned by the same equivalence suites that pin the
// metrics plane.
package causal

import (
	"fmt"
	"strconv"
	"time"

	"broadcastic/internal/telemetry"
)

// TraceID identifies one root activity (a job, an experiment run). IDs are
// minted per Recorder from a counter, rendered as 16 hex digits; 0 is
// never minted and means "no trace".
type TraceID uint64

// String renders the ID the way the HTTP API and dumps spell it.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// ParseTraceID inverts String (any 1..16-digit hex form is accepted).
func ParseTraceID(s string) (TraceID, error) {
	if s == "" || len(s) > 16 {
		return 0, fmt.Errorf("causal: malformed trace id %q", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("causal: malformed trace id %q", s)
	}
	return TraceID(v), nil
}

// SpanID identifies one span within a Recorder. IDs are unique across
// traces (one counter per Recorder); 0 means "no span" / "no parent".
type SpanID uint64

// String renders the span ID in the dump format.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// Kind distinguishes the two record shapes.
type Kind uint8

const (
	// KindSpan is a timed region: Start and End are both meaningful.
	KindSpan Kind = iota
	// KindEvent is an instant: only Start is meaningful.
	KindEvent
)

func (k Kind) String() string {
	if k == KindSpan {
		return "span"
	}
	return "event"
}

// Attr is one key/value annotation on a record. Values are strings — the
// recording paths precompute or cheaply format them, and the dump is
// NDJSON where everything is a string anyway.
type Attr struct {
	Key, Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: strconv.Itoa(value)} }

// Record is one flight-recorder entry: a completed span or an instant
// event, with its position in the causal tree. Start and End are
// nanoseconds since the Recorder's epoch (its construction time).
type Record struct {
	Trace  TraceID
	Span   SpanID
	Parent SpanID
	Kind   Kind
	Name   string
	Start  int64
	End    int64 // spans only; 0 for events
	Fault  bool  // marks fault instants and failure events
	Attrs  []Attr
}

// EventSink receives a copy of every record a Context emits, in emission
// order, for per-trace tees (the tracelog Sink implements it so Perfetto
// traces group by trace ID). Implementations must be safe for concurrent
// use. Sinks ride on the Context (Recorder.StartTraceSink), never on the
// Recorder, so concurrent traces can tee to different files.
type EventSink interface {
	CausalEvent(Record)
}

// Canonical record names, one per instrumented site. Tests and the CI
// smoke assert against these; DESIGN.md §14 documents the chain they form.
const (
	// Job service (root minted by serve.AttachJobs at admission).
	JobAdmission = "jobs.admission"  // root event: tenant + experiment attrs
	JobCacheHit  = "jobs.cache_hit"  // event: answered from the result cache
	JobRejected  = "jobs.rejected"   // fault event: refused (backpressure, invalid)
	JobQueueWait = "jobs.queue_wait" // span: submit -> dispatch
	JobDispatch  = "jobs.dispatch"   // event: a worker picked the job up
	JobExecute   = "jobs.execute"    // span: the runner's whole execution
	JobDone      = "jobs.done"       // event: finished successfully
	JobFail      = "jobs.fail"       // failure event: triggers the auto-dump
	JobCanceled  = "jobs.canceled"   // event: canceled by the client

	// Experiment harness and engines.
	ExperimentRoot = "experiment"     // root event for suite-run traces
	SimCell        = "sim.cell"       // span: one sweep cell
	CoreShard      = "core.cic.shard" // span: one estimator shard (engine attr)
	IRCompile      = "ir.compile"     // span: one program compilation (program-cache miss)

	// Networked runtime.
	NetrunTurn  = "netrun.turn"  // span: one turn, announcement to delivery
	NetrunHop   = "netrun.hop"   // span: one data frame send -> ack (link, kind attrs)
	NetrunRetry = "netrun.retry" // event: one retransmission attempt
	NetrunFault = "netrun.fault" // fault event: one injected link fault
	NetrunCrash = "netrun.crash" // failure event: player crash, triggers auto-dump
)

// Context carries a trace identity and the current parent span into an
// instrumented layer. The zero Context is disabled; Contexts are values,
// copied freely, and safe for concurrent use (the Recorder and sink they
// point at are concurrency-safe).
type Context struct {
	rec   *Recorder
	sink  EventSink
	trace TraceID
	span  SpanID
}

// Enabled reports whether records will be kept. Call sites that build
// attribute slices should guard on it so the disabled path allocates
// nothing.
func (c Context) Enabled() bool { return c.rec != nil }

// Trace returns the context's trace ID (0 when disabled).
func (c Context) Trace() TraceID { return c.trace }

// StartSpan opens a child span of the context's current span. The span is
// recorded at End (flight-recorder entries are completed regions); a span
// never ended is simply absent from the dump. m is the calling layer's
// metrics Collector: when it is non-nil the span is timed even though the
// context is disabled, so End can return the duration its histogram
// observes. With a disabled context and a nil m the span is inert. A
// recording span keeps its own copy of attrs, so the caller's attribute
// slice never escapes and an unrecorded span allocates nothing.
func (c Context) StartSpan(m *telemetry.Collector, name string, attrs ...Attr) Span {
	switch {
	case c.rec != nil:
		sp := Span{
			ctx:   c,
			id:    c.rec.nextSpan(),
			name:  name,
			start: c.rec.now(),
		}
		if len(attrs) > 0 {
			sp.attrs = append([]Attr(nil), attrs...)
		}
		return sp
	case m != nil:
		return Span{start: sinceOrigin(), timed: true}
	}
	return Span{}
}

// StartSpanShared is StartSpan for an attribute slice that is built once
// and never modified afterwards: a recording span keeps attrs itself
// rather than a copy, so a hot path that opens many spans with the same
// attributes allocates nothing per span.
func (c Context) StartSpanShared(m *telemetry.Collector, name string, attrs []Attr) Span {
	sp := c.StartSpan(m, name)
	if c.rec != nil {
		sp.attrs = attrs
	}
	return sp
}

// origin is the clock of spans timed only for a metrics Collector: with no
// flight recorder there is no epoch, and a duration needs none.
var origin = time.Now()

func sinceOrigin() int64 { return int64(time.Since(origin)) }

// Event records an instant under the current span.
func (c Context) Event(name string, attrs ...Attr) {
	c.emit(name, false, attrs)
}

// Fault records a fault instant (an injected drop/duplicate/corruption,
// a rejected submission) under the current span. Faults are expected,
// recoverable occurrences; they mark the record but trigger no dump.
func (c Context) Fault(name string, attrs ...Attr) {
	c.emit(name, true, attrs)
}

// Fail records a failure event (a player crash, a failed job) and asks
// the recorder to auto-dump this trace to its configured writer (see
// Recorder.SetAutoDump). Each trace dumps at most once.
func (c Context) Fail(name string, attrs ...Attr) {
	if c.rec == nil {
		return
	}
	c.emit(name, true, attrs)
	c.rec.autoDumpTrace(c.trace)
}

func (c Context) emit(name string, fault bool, attrs []Attr) {
	if c.rec == nil {
		return
	}
	r := Record{
		Trace:  c.trace,
		Span:   c.rec.nextSpan(),
		Parent: c.span,
		Kind:   KindEvent,
		Name:   name,
		Start:  c.rec.now(),
		Fault:  fault,
		Attrs:  attrs,
	}
	c.rec.append(r)
	if c.sink != nil {
		c.sink.CausalEvent(r)
	}
}

// Span is an in-flight timed region. The zero Span (from a disabled
// Context and no metrics Collector) is inert: Context returns a disabled
// Context and End returns 0 without reading the clock.
type Span struct {
	ctx   Context
	id    SpanID
	name  string
	start int64
	timed bool // timed for a metrics Collector alone, start read from origin
	attrs []Attr
}

// Context returns a child context whose records parent to this span —
// the propagation step each layer performs before handing off to the
// next (service -> runner -> sweep cell -> shard / hop).
func (s Span) Context() Context {
	if s.ctx.rec == nil {
		return Context{}
	}
	c := s.ctx
	c.span = s.id
	return c
}

// End completes the span, records it when its context is enabled, and
// returns its duration: the End − Start of the record, or the same clock
// difference for a span timed only for a metrics Collector. An inert span
// returns 0.
func (s Span) End() time.Duration {
	if s.ctx.rec == nil {
		if !s.timed {
			return 0
		}
		return time.Duration(sinceOrigin() - s.start)
	}
	r := Record{
		Trace:  s.ctx.trace,
		Span:   s.id,
		Parent: s.ctx.span,
		Kind:   KindSpan,
		Name:   s.name,
		Start:  s.start,
		End:    s.ctx.rec.now(),
		Attrs:  s.attrs,
	}
	s.ctx.rec.append(r)
	if s.ctx.sink != nil {
		s.ctx.sink.CausalEvent(r)
	}
	return time.Duration(r.End - r.Start)
}
