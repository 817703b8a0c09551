// Package tracelog turns one run's telemetry stream into a Chrome
// trace-event JSON file, openable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. It is the per-run, time-resolved complement to the
// aggregate Collector: where the Collector answers "how many bits, in
// total", a trace answers "when, on which track, in what order".
//
// A Sink implements telemetry.Recorder, so it installs anywhere a
// Collector does — netrun.Config.Recorder, sim.Config.Recorder — and can
// tee into a downstream recorder so aggregation and tracing share one run.
// The existing instrumentation call sites map onto trace events without
// modification:
//
//   - Observations of *_ns metrics (spans: netrun turn/ack latency, sim
//     cell wall time, pool worker busy time, estimator shards) become
//     complete ("X") duration events, placed on a track derived from the
//     metric name: netrun.topo.<l>.* lands on "link <l>", other netrun.*
//     on "coordinator", pool.* / sim.* / core.* / blackboard.* on their
//     layer's track.
//   - Counts of fault and crash metrics (netrun.faults,
//     netrun.topo.<l>.faults.<kind>, netrun.crashes) become instant ("i")
//     events — each injected fault is visible at its moment of injection.
//   - All other counts become counter ("C") events carrying the cumulative
//     value, so Perfetto renders bit and message totals as rising series.
//
// Every event carries the sink's run ID in its args; the ID is also in the
// file's otherData block. Callers choose stable IDs (seed- and
// experiment-derived), so re-running a configuration produces a trace with
// the same identity.
//
// Recording never perturbs the run: the sink observes names, values and
// the clock, exactly like the Collector, and the conformance suites pin
// that transcripts and tables are bit-identical with a Sink installed.
package tracelog

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// Event is one Chrome trace event. Only the fields this package emits are
// modeled; the format tolerates (and Perfetto ignores) absent optionals.
type Event struct {
	Name  string `json:"name"`
	Phase string `json:"ph"`
	// Ts and Dur are microseconds from the sink's start.
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Trace is the JSON object format of the trace-event specification.
type Trace struct {
	TraceEvents     []Event           `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// sanitizeFloat maps values JSON cannot carry onto encodable ones: NaN
// becomes 0, ±Inf saturates to ±MaxFloat64. Trace timestamps and counter
// values are diagnostics; a clamped outlier beats an unencodable file.
func sanitizeFloat(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	default:
		return v
	}
}

// Encode writes t as valid JSON whatever the event contents: float fields
// are sanitized first (encoding/json rejects NaN/Inf), string fields pass
// through encoding/json's escaping. The fuzz target pins that the output
// always re-parses.
func Encode(w io.Writer, t *Trace) error {
	clean := Trace{
		TraceEvents:     make([]Event, len(t.TraceEvents)),
		DisplayTimeUnit: t.DisplayTimeUnit,
		OtherData:       t.OtherData,
	}
	if clean.DisplayTimeUnit == "" {
		clean.DisplayTimeUnit = "ms"
	}
	for i, ev := range t.TraceEvents {
		ev.Ts = sanitizeFloat(ev.Ts)
		ev.Dur = sanitizeFloat(ev.Dur)
		if ev.Args != nil {
			args := make(map[string]any, len(ev.Args))
			for k, v := range ev.Args {
				if f, ok := v.(float64); ok {
					args[k] = sanitizeFloat(f)
				} else {
					args[k] = v
				}
			}
			ev.Args = args
		}
		clean.TraceEvents[i] = ev
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&clean)
}

// Track ids. Fixed small ids keep related events on stable rows in the
// viewer; per-link tracks start at linkTidBase + link index.
const (
	tidCoordinator = 1
	tidPool        = 2
	tidHarness     = 3
	tidBlackboard  = 4
	tidEstimator   = 5
	tidOther       = 6
	tidJobs        = 7
	linkTidBase    = 16
)

// metricsPid is the process id of the aggregate metrics plane; causal
// traces get their own pid each, allocated from causalPidBase upward, so
// Perfetto groups one trace's spans under one process named after its
// trace ID.
const (
	metricsPid    = 1
	causalPidBase = 2
)

// trackFor derives the display track from a metric's dot-path.
func trackFor(name string) (tid int, label string) {
	if rest, ok := strings.CutPrefix(name, telemetry.NetrunTopo+"."); ok {
		if dot := strings.IndexByte(rest, '.'); dot > 0 {
			if idx, err := strconv.Atoi(rest[:dot]); err == nil && idx >= 0 {
				return linkTidBase + idx, "link " + rest[:dot]
			}
		}
	}
	switch {
	case strings.HasPrefix(name, "netrun."):
		return tidCoordinator, "coordinator"
	case strings.HasPrefix(name, "pool."):
		return tidPool, "pool"
	case strings.HasPrefix(name, "sim."):
		return tidHarness, "harness"
	case strings.HasPrefix(name, "blackboard."):
		return tidBlackboard, "blackboard"
	case strings.HasPrefix(name, "core."):
		return tidEstimator, "estimator"
	case strings.HasPrefix(name, "jobs."):
		return tidJobs, "jobs"
	default:
		return tidOther, "other"
	}
}

// isInstant reports whether a counted metric should render as a discrete
// instant event rather than a cumulative counter series: injected faults
// and crashes are point occurrences an investigation wants to see
// individually on the timeline.
func isInstant(name string) bool {
	return name == telemetry.NetrunFaults ||
		name == telemetry.NetrunCrashes ||
		strings.Contains(name, ".faults.")
}

// Sink records one run's telemetry as trace events. Safe for concurrent
// use; events buffer in memory until WriteTo (a run trace is bounded by
// the run, and the callers that install sinks are opt-in diagnostics).
type Sink struct {
	runID string
	start time.Time
	next  telemetry.Recorder

	mu       sync.Mutex
	events   []Event
	counters map[string]int64
	tracks   map[int]string
	causal   map[causal.TraceID]*causalProcess
	nextPid  int
}

// causalProcess is the per-trace display process: its pid, the process
// metadata args (trace ID plus the root record's attrs — tenant,
// experiment), and the thread labels used under it.
type causalProcess struct {
	pid    int
	args   map[string]any
	tracks map[int]string
}

// New starts a sink for one run. runID should be stable across reruns of
// the same configuration (derive it from the seed and workload, not the
// clock). next, when non-nil, receives every event too — the usual shape
// is New(id, collector) so a run feeds its trace and the serving
// Collector from the same call sites.
func New(runID string, next telemetry.Recorder) *Sink {
	return &Sink{
		runID:    runID,
		start:    time.Now(),
		next:     next,
		counters: make(map[string]int64),
		tracks:   make(map[int]string),
		causal:   make(map[causal.TraceID]*causalProcess),
		nextPid:  causalPidBase,
	}
}

// RunID returns the sink's stable run identifier.
func (s *Sink) RunID() string { return s.runID }

func (s *Sink) now() float64 { return float64(time.Since(s.start)) / 1e3 } // µs

// Count implements telemetry.Recorder.
func (s *Sink) Count(name string, delta int64) {
	if s.next != nil {
		s.next.Count(name, delta)
	}
	tid, label := trackFor(name)
	ts := s.now()
	s.mu.Lock()
	s.tracks[tid] = label
	s.counters[name] += delta
	total := s.counters[name]
	if isInstant(name) {
		s.events = append(s.events, Event{
			Name: name, Phase: "i", Ts: ts, Pid: 1, Tid: tid, Scope: "t",
			Args: map[string]any{"delta": delta, "total": total, "runId": s.runID},
		})
	} else {
		s.events = append(s.events, Event{
			Name: name, Phase: "C", Ts: ts, Pid: 1, Tid: tid,
			Args: map[string]any{"value": float64(total), "runId": s.runID},
		})
	}
	s.mu.Unlock()
}

// Observe implements telemetry.Recorder. Span observations (*_ns metric
// names, recorded at span end with the duration as the value) become
// complete events stretching back over the measured interval; any other
// observation becomes an instant event carrying its value.
func (s *Sink) Observe(name string, value float64) {
	if s.next != nil {
		s.next.Observe(name, value)
	}
	tid, label := trackFor(name)
	end := s.now()
	s.mu.Lock()
	s.tracks[tid] = label
	if strings.HasSuffix(name, "_ns") && value >= 0 && !math.IsInf(value, 1) && !math.IsNaN(value) {
		dur := value / 1e3 // ns -> µs
		ts := end - dur
		if ts < 0 {
			ts = 0
		}
		s.events = append(s.events, Event{
			Name: name, Phase: "X", Ts: ts, Dur: dur, Pid: 1, Tid: tid,
			Args: map[string]any{"runId": s.runID},
		})
	} else {
		s.events = append(s.events, Event{
			Name: name, Phase: "i", Ts: end, Pid: 1, Tid: tid, Scope: "t",
			Args: map[string]any{"value": value, "runId": s.runID},
		})
	}
	s.mu.Unlock()
}

// Gauge implements telemetry.GaugeRecorder: the level renders as a
// counter ("C") series, which is how Perfetto displays point-in-time
// values, and forwards downstream so a tee chain never swallows gauges.
func (s *Sink) Gauge(name string, value float64) {
	if g, ok := s.next.(telemetry.GaugeRecorder); ok {
		g.Gauge(name, value)
	}
	tid, label := trackFor(name)
	ts := s.now()
	s.mu.Lock()
	s.tracks[tid] = label
	s.events = append(s.events, Event{
		Name: name, Phase: "C", Ts: ts, Pid: metricsPid, Tid: tid,
		Args: map[string]any{"value": value, "runId": s.runID},
	})
	s.mu.Unlock()
}

// CausalEvent implements causal.EventSink: each trace renders as its own
// process (pid >= causalPidBase) named after the trace ID, spans as
// complete ("X") events and instants as "i" events, on threads derived
// from the record name the same way metric tracks are. Timestamps are the
// causal Recorder's (nanoseconds since its epoch), self-consistent within
// each causal pid.
func (s *Sink) CausalEvent(rec causal.Record) {
	tid, label := trackFor(rec.Name)
	s.mu.Lock()
	cp := s.causal[rec.Trace]
	if cp == nil {
		cp = &causalProcess{
			pid:    s.nextPid,
			args:   map[string]any{"trace": rec.Trace.String()},
			tracks: make(map[int]string),
		}
		s.nextPid++
		s.causal[rec.Trace] = cp
	}
	cp.tracks[tid] = label
	if rec.Parent == 0 {
		// Root records carry the trace's identity (tenant, experiment);
		// surface it on the process itself.
		for _, a := range rec.Attrs {
			cp.args[a.Key] = a.Value
		}
	}
	args := make(map[string]any, len(rec.Attrs)+4)
	for _, a := range rec.Attrs {
		args[a.Key] = a.Value
	}
	args["span"] = rec.Span.String()
	if rec.Parent != 0 {
		args["parent"] = rec.Parent.String()
	}
	if rec.Fault {
		args["fault"] = true
	}
	ev := Event{Name: rec.Name, Pid: cp.pid, Tid: tid, Args: args}
	if rec.Kind == causal.KindSpan && rec.End >= rec.Start {
		ev.Phase = "X"
		ev.Ts = float64(rec.Start) / 1e3
		ev.Dur = float64(rec.End-rec.Start) / 1e3
	} else {
		ev.Phase = "i"
		ev.Ts = float64(rec.Start) / 1e3
		ev.Scope = "t"
	}
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

var (
	_ telemetry.Recorder      = (*Sink)(nil)
	_ telemetry.GaugeRecorder = (*Sink)(nil)
	_ causal.EventSink        = (*Sink)(nil)
)

// Snapshot assembles the trace recorded so far: thread-name metadata for
// every used track (sorted, so equal runs produce equal files) followed by
// the events in recording order.
func (s *Sink) Snapshot() *Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	tids := make([]int, 0, len(s.tracks))
	for tid := range s.tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	events := make([]Event, 0, len(tids)+len(s.events))
	for _, tid := range tids {
		events = append(events, Event{
			Name: "thread_name", Phase: "M", Pid: metricsPid, Tid: tid,
			Args: map[string]any{"name": s.tracks[tid]},
		})
	}
	// Causal processes, ordered by pid (allocation order), each announcing
	// its name ("trace <id>" plus root attrs) and thread labels.
	procs := make([]*causalProcess, 0, len(s.causal))
	for _, cp := range s.causal {
		procs = append(procs, cp)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })
	for _, cp := range procs {
		name := "trace"
		if t, ok := cp.args["trace"].(string); ok {
			name = "trace " + t
		}
		args := make(map[string]any, len(cp.args)+1)
		for k, v := range cp.args {
			args[k] = v
		}
		args["name"] = name
		events = append(events, Event{
			Name: "process_name", Phase: "M", Pid: cp.pid, Args: args,
		})
		ctids := make([]int, 0, len(cp.tracks))
		for tid := range cp.tracks {
			ctids = append(ctids, tid)
		}
		sort.Ints(ctids)
		for _, tid := range ctids {
			events = append(events, Event{
				Name: "thread_name", Phase: "M", Pid: cp.pid, Tid: tid,
				Args: map[string]any{"name": cp.tracks[tid]},
			})
		}
	}
	events = append(events, s.events...)
	return &Trace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"runId": s.runID},
	}
}

// WriteTo encodes the trace to w and implements io.WriterTo. The sink
// remains usable afterwards (later writes include earlier events).
func (s *Sink) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	err := Encode(cw, s.Snapshot())
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// FileName returns the conventional trace file name for a run ID, with
// every path-hostile byte sanitized: "<runID>.trace.json".
func FileName(runID string) string {
	b := make([]byte, 0, len(runID))
	for i := 0; i < len(runID); i++ {
		c := runID[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	if len(b) == 0 {
		b = append(b, '_')
	}
	return fmt.Sprintf("%s.trace.json", b)
}
