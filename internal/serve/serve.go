// Package serve is the live observability plane: a zero-dependency HTTP
// surface exposing the process's telemetry while experiments run.
//
//   - /metrics — Prometheus text exposition of a telemetry.Collector
//     (internal/telemetry/promtext), scrapeable by any Prometheus-
//     compatible agent.
//   - /healthz — liveness JSON with the binary's build identity.
//   - /runs — per-run progress (cells done/total, recorded bits, elapsed
//     and ETA) as an NDJSON snapshot; with ?follow=1 or an SSE Accept
//     header, the snapshot is followed by a live stream of updates.
//   - /debug/pprof/ — the standard runtime profiles.
//
// The plane strictly observes: handlers read Collector snapshots and
// Broker state, never experiment internals, so serving cannot perturb any
// deterministic output. The e2e tests pin that tables rendered with the
// plane attached are byte-identical to tables rendered without it.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"broadcastic/internal/buildinfo"
	"broadcastic/internal/jobs"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/promtext"
)

// RunProgress is one run's live state as published to /runs. A run is one
// experiment execution (e.g. "E7" within run "all-seed1"); every update
// carries the full state, so consumers need no history to render it.
type RunProgress struct {
	// RunID identifies the enclosing invocation (stable across reruns of
	// the same configuration, e.g. "E7-seed1").
	RunID string `json:"runId"`
	// Experiment is the experiment ID ("E1".."E21").
	Experiment string `json:"experiment"`
	// CellsDone and CellsTotal count completed sweep cells. A sweep's
	// updates are published in order (sim.Config.Progress serializes its
	// calls), so CellsDone only grows within a sweep and a finished
	// sweep's last record has CellsDone == CellsTotal.
	CellsDone  int `json:"cellsDone"`
	CellsTotal int `json:"cellsTotal"`
	// Bits is the communication recorded so far (blackboard + wire bits)
	// in the attached Collector at publish time. It is a process-wide
	// total, not this run's alone, and a networked run's bits land in it
	// when that run ends.
	Bits int64 `json:"bits"`
	// ElapsedMs is wall time since the run started; EtaMs linearly
	// extrapolates the remaining cells (0 until the first cell lands).
	ElapsedMs int64 `json:"elapsedMs"`
	EtaMs     int64 `json:"etaMs"`
	// Done marks the final update of a run.
	Done bool `json:"done"`
}

func (p RunProgress) key() string { return p.RunID + "\x00" + p.Experiment }

// Broker fans run-progress updates out to any number of /runs streams
// while remembering, for snapshots, the latest state of at most
// jobs.Retain runs: once it holds that many, a new run displaces the one
// first published earliest, as the job service retires its
// earliest-finished job, so a long-lived daemon's /runs stays bounded.
// All methods are safe for concurrent use.
type Broker struct {
	mu     sync.Mutex
	latest map[string]RunProgress
	order  []string // keys in first-publish order, for stable snapshots; at most jobs.Retain
	subs   map[chan RunProgress]struct{}
	rec    *telemetry.Collector // counts dropped updates (nil ok)
}

// NewBrokerRecorded returns an empty broker that counts updates dropped
// under subscriber backpressure on rec as serve.runs.dropped_updates
// (nil rec: uncounted).
func NewBrokerRecorded(rec *telemetry.Collector) *Broker {
	return &Broker{
		latest: make(map[string]RunProgress),
		subs:   make(map[chan RunProgress]struct{}),
		rec:    rec,
	}
}

// Publish records p as its run's latest state and forwards it to every
// subscriber. Slow subscribers lose intermediate updates rather than
// blocking the publisher: each update carries full state, so the next one
// heals the gap. Every such drop increments serve.runs.dropped_updates on
// the broker's recorder, making stream loss observable on /metrics.
func (b *Broker) Publish(p RunProgress) {
	dropped := int64(0)
	b.mu.Lock()
	key := p.key()
	if _, seen := b.latest[key]; !seen {
		if len(b.order) == jobs.Retain {
			delete(b.latest, b.order[0])
			b.order[0] = "" // release the key from the backing array
			b.order = b.order[1:]
		}
		b.order = append(b.order, key)
	}
	b.latest[key] = p
	for ch := range b.subs {
		select {
		case ch <- p:
		default:
			dropped++
		}
	}
	b.mu.Unlock()
	if dropped > 0 {
		b.rec.Count(telemetry.ServeRunsDroppedUpdates, dropped)
	}
}

// Snapshot returns the latest state of every run the broker holds, in
// first-publish order.
func (b *Broker) Snapshot() []RunProgress {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]RunProgress, 0, len(b.order))
	for _, key := range b.order {
		out = append(out, b.latest[key])
	}
	return out
}

// Subscribe registers a new stream. The returned channel receives every
// subsequent Publish (minus drops under backpressure); cancel
// unregisters it and closes the channel.
func (b *Broker) Subscribe() (<-chan RunProgress, func()) {
	ch := make(chan RunProgress, 64)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
			close(ch)
		}
		b.mu.Unlock()
	}
	return ch, cancel
}

// ProgressFunc adapts the broker to sim.Config.Progress for one
// experiment run: each hook call publishes cells done/total, the
// collector's cumulative bits, elapsed wall time and a linear ETA. col
// may be nil (bits stay 0). The final cell publishes Done=true.
func (b *Broker) ProgressFunc(runID, experiment string, col *telemetry.Collector) func(done, total int) {
	start := time.Now()
	return func(done, total int) {
		p := RunProgress{
			RunID:      runID,
			Experiment: experiment,
			CellsDone:  done,
			CellsTotal: total,
			Bits:       col.Counter(telemetry.BlackboardBits) + col.Counter(telemetry.NetrunWireBits),
			ElapsedMs:  time.Since(start).Milliseconds(),
			Done:       done >= total,
		}
		if done > 0 && done < total {
			p.EtaMs = p.ElapsedMs * int64(total-done) / int64(done)
		}
		b.Publish(p)
	}
}

// Health is the process's readiness state, shared between /healthz and the
// lifecycle code that flips it: not ready until the job fleet is up, not
// ready again once draining begins at shutdown. The zero value is "not
// ready"; a nil *Health means readiness is not tracked and /healthz always
// reports ready (the standalone, no-jobs configurations).
type Health struct {
	ready atomic.Bool
}

// SetReady flips the readiness state. Nil-safe.
func (h *Health) SetReady(ready bool) {
	if h != nil {
		h.ready.Store(ready)
	}
}

// Ready reports readiness; a nil *Health is always ready.
func (h *Health) Ready() bool { return h == nil || h.ready.Load() }

// NewMuxHealth builds the observability mux over a collector, a broker
// and a readiness state. Any may be nil: a nil collector serves an empty
// exposition, a nil broker an empty snapshot and no streams, and a nil
// health reports ready on /healthz always. Otherwise /healthz splits
// liveness from readiness: it returns 200 {"status":"ok",...,"ready":true}
// while health reports ready, and 503 {"status":"unavailable",
// "ready":false,...} during startup and shutdown drain — so orchestrators
// stop routing before the fleet stops accepting. ?live=1 is the pure
// liveness probe: 200 whenever the process can serve HTTP, whatever the
// readiness state.
func NewMuxHealth(col *telemetry.Collector, broker *Broker, health *Health) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if col == nil {
			return
		}
		if _, err := promtext.WriteCollector(w, col); err != nil {
			// Headers are gone; nothing to do but stop writing.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		live := r.URL.Query().Get("live") == "1"
		ready := health.Ready()
		status := "ok"
		if !ready && !live {
			status = "unavailable"
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		info := buildinfo.Resolve()
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":  status,
			"ready":   ready,
			"module":  info.Path,
			"version": info.Version,
			"go":      info.GoVersion,
			"rev":     info.Revision,
		})
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		serveRuns(w, r, broker)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// wantsSSE reports whether the client asked for a server-sent-events
// stream (Accept header) rather than NDJSON.
func wantsSSE(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			if mt, _, _ := strings.Cut(part, ";"); strings.TrimSpace(mt) == "text/event-stream" {
				return true
			}
		}
	}
	return false
}

// serveRuns writes the current snapshot and, when following, streams
// subsequent updates until the client disconnects. NDJSON by default; SSE
// when the Accept header asks for text/event-stream.
func serveRuns(w http.ResponseWriter, r *http.Request, broker *Broker) {
	sse := wantsSSE(r)
	follow := sse || r.URL.Query().Get("follow") == "1"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	emit := func(p RunProgress) error {
		data, err := json.Marshal(p)
		if err != nil {
			return err
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", data)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", data)
		}
		if err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	// Subscribe before snapshotting so no update published in between is
	// lost; duplicates with the snapshot are harmless (full state).
	var updates <-chan RunProgress
	var cancel func()
	if broker != nil {
		if follow {
			updates, cancel = broker.Subscribe()
			defer cancel()
		}
		for _, p := range broker.Snapshot() {
			if err := emit(p); err != nil {
				return
			}
		}
	}
	if !follow {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case p, ok := <-updates:
			if !ok {
				return
			}
			if err := emit(p); err != nil {
				return
			}
		}
	}
}

// Server runs the observability mux on a TCP listener.
type Server struct {
	http   *http.Server
	ln     net.Listener
	done   chan error
	cancel context.CancelFunc // ends the base context, unblocking streams
}

// Start listens on addr (e.g. "127.0.0.1:8344"; ":0" picks a free port)
// and serves mux in the background. Addr() reports the bound address.
func Start(addr string, mux http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	// Request contexts derive from this base context, so canceling it at
	// shutdown ends long-lived /runs?follow=1 streams that would otherwise
	// hold http.Server.Shutdown hostage until the client hung up.
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		http: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
			BaseContext:       func(net.Listener) context.Context { return baseCtx },
		},
		ln:     ln,
		done:   make(chan error, 1),
		cancel: cancel,
	}
	go func() {
		err := s.http.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.done <- err
	}()
	return s, nil
}

// Addr returns the listener's bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops accepting connections, signals in-flight streams to end
// via their request contexts, waits for handlers up to ctx's deadline
// (force-closing connections if it expires), and returns the serve loop's
// error, if any.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		// Deadline hit with handlers still running: sever their
		// connections rather than leaking them.
		_ = s.http.Close()
		return err
	}
	return <-s.done
}
