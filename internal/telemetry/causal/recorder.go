package causal

import (
	"bufio"
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the flight recorder's record capacity when
// NewRecorder is given 0. At ~100 bytes per record it bounds the recorder
// around a few megabytes — enough to hold several quick-scale jobs end to
// end while staying a fixed, crash-safe budget.
const DefaultCapacity = 32768

// Recorder is the flight recorder: a bounded, lock-cheap ring of recent
// Records. Writes are sharded — each shard has its own mutex and fixed
// ring, and appenders pick shards round-robin with one atomic increment —
// so concurrent recording from pool workers, player goroutines and HTTP
// handlers contends only 1/shards of the time and never allocates.
// Eviction is per shard, oldest first; because appends spread uniformly,
// global order is reconstructed at dump time by timestamp.
//
// The Recorder also mints IDs: trace IDs and span IDs each come from a
// process-local atomic counter, so they are unique per Recorder and cheap
// enough to mint on every phase boundary.
type Recorder struct {
	epoch  time.Time
	shards []recorderShard
	mask   uint64
	cursor atomic.Uint64 // round-robin shard selector
	traces atomic.Uint64 // TraceID mint
	spans  atomic.Uint64 // SpanID mint

	dumpMu   sync.Mutex
	autoDump io.Writer
	dumped   map[TraceID]bool
}

// recorderShard is one mutex+ring pair, padded so neighboring shards do
// not share a cache line under write contention.
type recorderShard struct {
	mu    sync.Mutex
	buf   []Record
	next  int
	total int64 // appends ever, for eviction accounting
	_     [64]byte
}

// NewRecorder builds a flight recorder holding at most capacity records
// (0 means DefaultCapacity). The shard count is the power of two nearest
// GOMAXPROCS (capped at 16); capacity is split evenly across shards.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	per := capacity / shards
	if per < 16 {
		per = 16
	}
	r := &Recorder{
		epoch:  time.Now(),
		shards: make([]recorderShard, shards),
		mask:   uint64(shards - 1),
		dumped: make(map[TraceID]bool),
	}
	for i := range r.shards {
		r.shards[i].buf = make([]Record, 0, per)
	}
	return r
}

// Epoch returns the recorder's time origin; Record timestamps are
// nanoseconds since it.
func (r *Recorder) Epoch() time.Time { return r.epoch }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *Recorder) nextSpan() SpanID { return SpanID(r.spans.Add(1)) }

// StartTrace mints a fresh trace with a root span and records the root
// event (name + attrs carry the trace's identity: tenant, experiment,
// run ID). The returned Context parents everything to the root span.
func (r *Recorder) StartTrace(name string, attrs ...Attr) Context {
	return r.StartTraceSink(nil, name, attrs...)
}

// StartTraceSink is StartTrace with a per-trace tee attached before the
// root record is emitted, so the sink sees the root's identity attrs too
// (the tracelog Sink promotes them onto its Perfetto process).
func (r *Recorder) StartTraceSink(sink EventSink, name string, attrs ...Attr) Context {
	trace := TraceID(r.traces.Add(1))
	root := r.nextSpan()
	rec := Record{
		Trace: trace,
		Span:  root,
		Kind:  KindEvent,
		Name:  name,
		Start: r.now(),
		Attrs: attrs,
	}
	r.append(rec)
	if sink != nil {
		sink.CausalEvent(rec)
	}
	return Context{rec: r, sink: sink, trace: trace, span: root}
}

// append stores one record, evicting the shard's oldest when full.
func (r *Recorder) append(rec Record) {
	s := &r.shards[r.cursor.Add(1)&r.mask]
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, rec)
	} else {
		s.buf[s.next] = rec
		s.next++
		if s.next == len(s.buf) {
			s.next = 0
		}
	}
	s.total++
	s.mu.Unlock()
}

// Stats reports the recorder's occupancy: records currently held, records
// ever appended (appended - held have been evicted), and total capacity.
func (r *Recorder) Stats() (held int, appended int64, capacity int) {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		held += len(s.buf)
		appended += s.total
		capacity += cap(s.buf)
		s.mu.Unlock()
	}
	return held, appended, capacity
}

// Records snapshots the held records, filtered to one trace when filter is
// nonzero, ordered by start time (ties by span ID, which allocation order
// makes causally consistent). The slice is detached.
func (r *Recorder) Records(filter TraceID) []Record {
	var out []Record
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for _, rec := range s.buf {
			if filter == 0 || rec.Trace == filter {
				out = append(out, rec)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// jsonRecord is the NDJSON dump shape of one Record.
type jsonRecord struct {
	Trace   string            `json:"trace"`
	Span    string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Kind    string            `json:"kind"`
	Name    string            `json:"name"`
	StartNs int64             `json:"startNs"`
	EndNs   int64             `json:"endNs,omitempty"`
	Fault   bool              `json:"fault,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func toJSONRecord(rec Record) jsonRecord {
	j := jsonRecord{
		Trace:   rec.Trace.String(),
		Span:    rec.Span.String(),
		Kind:    rec.Kind.String(),
		Name:    rec.Name,
		StartNs: rec.Start,
		EndNs:   rec.End,
		Fault:   rec.Fault,
	}
	if rec.Parent != 0 {
		j.Parent = rec.Parent.String()
	}
	if len(rec.Attrs) > 0 {
		j.Attrs = make(map[string]string, len(rec.Attrs))
		for _, a := range rec.Attrs {
			j.Attrs[a.Key] = a.Value
		}
	}
	return j
}

// Dump writes the held records (one trace when filter is nonzero) as
// NDJSON — one JSON object per line, in Records order — and returns the
// number of records written. Attr maps serialize with sorted keys
// (encoding/json's map order), so equal states dump byte-identically.
func (r *Recorder) Dump(w io.Writer, filter TraceID) (int, error) {
	recs := r.Records(filter)
	if err := DumpRecords(w, recs); err != nil {
		return 0, err
	}
	return len(recs), nil
}

// DumpRecords writes an already-snapshotted record slice as NDJSON, in
// slice order — for callers that need the records (or their count) before
// serializing, like the HTTP dump endpoint.
func DumpRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if err := enc.Encode(toJSONRecord(rec)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SetAutoDump directs failure dumps to w: the first Fail recorded under
// any given trace dumps that trace's records to w as NDJSON. nil disables
// auto-dumping. Safe to call at any time.
func (r *Recorder) SetAutoDump(w io.Writer) {
	r.dumpMu.Lock()
	r.autoDump = w
	r.dumpMu.Unlock()
}

// autoDumpTrace performs the at-most-once failure dump for a trace. The
// dump runs under dumpMu so concurrent failures cannot interleave their
// output; append never takes dumpMu, so recording proceeds unimpeded.
func (r *Recorder) autoDumpTrace(trace TraceID) {
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	if r.autoDump == nil || r.dumped[trace] {
		return
	}
	r.dumped[trace] = true
	_, _ = r.Dump(r.autoDump, trace)
}
