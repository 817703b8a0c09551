// Package tracelog turns one run's causal records into a Chrome
// trace-event JSON file, openable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. It is the per-run, time-resolved complement to the
// aggregate Collector: where the Collector answers "how many bits, in
// total", a trace answers "when, on which row, in what order".
//
// A Sink implements causal.EventSink, so it attaches to a trace context
// through Recorder.StartTraceSink and receives a copy of every record the
// run emits. Each record maps onto the trace by one rule:
//
//   - Its trace becomes a process, named "trace <id>" and carrying the
//     root record's attrs (tenant, experiment, run ID).
//   - Its row (a thread of that process) is "link <l>" when the record
//     has a link attr, and otherwise the first segment of its name:
//     sim.cell lands on "sim", core.cic.shard on "core", jobs.* on "jobs".
//   - A span becomes a complete ("X") event and any other record an
//     instant ("i"); fault instants carry fault=true.
//   - Spans that overlap in time on one row, such as concurrent cells at
//     -parallel > 1 or the two directions of one link, go to separate
//     lanes of that row, so no two X events on one thread partially
//     overlap.
//
// The run ID is in the file's otherData block. Callers choose stable IDs
// (seed- and experiment-derived), so re-running a configuration produces
// a trace with the same identity. A sink only collects records the trace
// already emits, so it never perturbs the run.
package tracelog

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"broadcastic/internal/telemetry/causal"
)

// Event is one Chrome trace event. Only the fields this package emits are
// modeled; the format tolerates (and Perfetto ignores) absent optionals.
type Event struct {
	Name  string `json:"name"`
	Phase string `json:"ph"`
	// Ts and Dur are microseconds from the causal recorder's epoch.
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
// becomes 0, ±Inf saturates to ±MaxFloat64. Trace timestamps are
// diagnostics; a clamped outlier beats an unencodable file.
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

// Sink collects one run's causal records for a trace file. Safe for
// concurrent use; records buffer in memory until WriteTo (a run trace is
// bounded by the run, and sinks are opt-in diagnostics).
type Sink struct {
	runID string

	mu      sync.Mutex
	records []causal.Record
}

// New starts a sink for one run. runID should be stable across reruns of
// the same configuration (derive it from the seed and workload, not the
// clock).
func New(runID string) *Sink { return &Sink{runID: runID} }

// RunID returns the sink's stable run identifier.
func (s *Sink) RunID() string { return s.runID }

// CausalEvent implements causal.EventSink.
func (s *Sink) CausalEvent(rec causal.Record) {
	s.mu.Lock()
	s.records = append(s.records, rec)
	s.mu.Unlock()
}

var _ causal.EventSink = (*Sink)(nil)

// rowOf is the display row of a record: "link <l>" for a record with a
// link attr, else the first dot-separated segment of its name.
func rowOf(rec causal.Record) string {
	for _, a := range rec.Attrs {
		if a.Key == "link" {
			return "link " + a.Value
		}
	}
	head, _, _ := strings.Cut(rec.Name, ".")
	return head
}

func isSlice(rec causal.Record) bool {
	return rec.Kind == causal.KindSpan && rec.End >= rec.Start
}

// Snapshot assembles the trace recorded so far: process and thread
// metadata first, then the events. Traces become processes in trace-ID
// order, and each trace's records are taken in start order, so equal
// record sets produce equal files.
func (s *Sink) Snapshot() *Trace {
	s.mu.Lock()
	recs := append([]causal.Record(nil), s.records...)
	s.mu.Unlock()
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Span < b.Span
	})
	var meta, events []Event
	for lo, pid := 0, 1; lo < len(recs); pid++ {
		hi := lo + 1
		for hi < len(recs) && recs[hi].Trace == recs[lo].Trace {
			hi++
		}
		m, ev := process(pid, recs[lo:hi])
		meta = append(meta, m...)
		events = append(events, ev...)
		lo = hi
	}
	return &Trace{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"runId": s.runID},
	}
}

// row is one display row of a trace: its first thread id and, per lane,
// the end of the last span placed there.
type row struct {
	name  string
	tid   int
	lanes []int64
}

// process renders one trace's records, sorted by start, as process pid.
// Rows are numbered in order of first appearance, each followed by its
// extra lanes. A span takes the first lane of its row that is free at its
// start, so spans in one lane never overlap; instants go on the first
// lane.
func process(pid int, recs []causal.Record) (meta, events []Event) {
	rows := map[string]*row{}
	var order []*row
	rowOfRec := make([]*row, len(recs))
	laneOfRec := make([]int, len(recs))
	procArgs := map[string]any{}
	for i, rec := range recs {
		if rec.Parent == 0 {
			// Root records carry the trace's identity (tenant,
			// experiment); surface it on the process itself.
			for _, a := range rec.Attrs {
				procArgs[a.Key] = a.Value
			}
		}
		name := rowOf(rec)
		r := rows[name]
		if r == nil {
			r = &row{name: name}
			rows[name] = r
			order = append(order, r)
		}
		rowOfRec[i] = r
		if !isSlice(rec) {
			continue
		}
		lane := 0
		for lane < len(r.lanes) && r.lanes[lane] > rec.Start {
			lane++
		}
		if lane == len(r.lanes) {
			r.lanes = append(r.lanes, rec.End)
		} else {
			r.lanes[lane] = rec.End
		}
		laneOfRec[i] = lane
	}

	trace := recs[0].Trace.String()
	procArgs["trace"] = trace
	procArgs["name"] = "trace " + trace
	meta = append(meta, Event{Name: "process_name", Phase: "M", Pid: pid, Args: procArgs})
	next := 1
	for _, r := range order {
		r.tid = next
		for lane := 0; lane < max(1, len(r.lanes)); lane++ {
			name := r.name
			if lane > 0 {
				name = fmt.Sprintf("%s (lane %d)", r.name, lane+1)
			}
			meta = append(meta, Event{Name: "thread_name", Phase: "M", Pid: pid, Tid: next,
				Args: map[string]any{"name": name}})
			next++
		}
	}

	for i, rec := range recs {
		args := make(map[string]any, len(rec.Attrs)+3)
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
		ev := Event{Name: rec.Name, Phase: "i", Ts: float64(rec.Start) / 1e3, Scope: "t",
			Pid: pid, Tid: rowOfRec[i].tid + laneOfRec[i], Args: args}
		if isSlice(rec) {
			ev.Phase, ev.Scope = "X", ""
			ev.Dur = (float64(rec.End) - float64(rec.Start)) / 1e3
		}
		events = append(events, ev)
	}
	return meta, events
}

// WriteTo encodes the trace to w and implements io.WriterTo. The sink
// remains usable afterwards (later writes include earlier records).
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

// WriteFile writes the trace to dir/FileName(runID) and returns the
// file's path. The error is the first of create, encode and close, so a
// trace that did not reach the disk is never reported written.
func (s *Sink) WriteFile(dir string) (string, error) {
	path := filepath.Join(dir, FileName(s.runID))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if _, err := s.WriteTo(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
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
