package sim

import (
	"sync"

	"broadcastic/internal/pool"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// The parallel sweep engine.
//
// Every experiment is a parameter sweep whose cells (grid points) are
// independent: each cell samples its own instances, runs its own protocol
// executions, and produces its own table row(s). The engine evaluates the
// cells on a worker pool while keeping the output bit-identical to a
// serial run at any worker count, by construction:
//
//   - cell randomness comes from per-cell child streams derived serially
//     up front (rng.Source.SplitN), so what a cell draws can never depend
//     on which goroutine runs it or when;
//   - results come back in cell order (pool.Map), so tables are assembled
//     in the same deterministic order regardless of completion order.
//
// With a Collector or a trace installed (Config.Recorder, Config.Causal)
// each cell runs under a sim.cell span, whose duration is the cell's
// sim.cell_ns sample; the span reads only the clock, so it cannot perturb
// any cell's output.

// workers resolves the configured worker count (0 → one per CPU).
func (c Config) workers() int { return pool.Workers(c.Workers) }

// sweep evaluates one result per cell on the worker pool. Cell i receives
// the i-th child stream of base (nil if base is nil, for sweeps that use
// no randomness); results are returned in cell order.
func sweep[T any](cfg Config, base *rng.Source, n int, fn func(cell int, src *rng.Source) (T, error)) ([]T, error) {
	var streams []*rng.Source
	if base != nil {
		streams = base.SplitN(n)
	}
	cell := func(i int) (T, error) {
		var src *rng.Source
		if streams != nil {
			src = streams[i]
		}
		return fn(i, src)
	}
	if cfg.Recorder != nil || cfg.Causal.Enabled() {
		inner := cell
		cell = func(i int) (T, error) {
			span := cfg.Causal.StartSpan(cfg.Recorder, causal.SimCell, causal.Int("cell", i))
			v, err := inner(i)
			cfg.Recorder.Observe(telemetry.SimCellNs, float64(span.End()))
			cfg.Recorder.Count(telemetry.SimCells, 1)
			return v, err
		}
	}
	if cfg.Progress != nil {
		// The hook runs under the same lock that counts the cell, so its
		// calls are serial and their done values increase: a consumer that
		// keeps the latest call, like /runs, ends on done == n.
		inner := cell
		var mu sync.Mutex
		done := 0
		cell = func(i int) (T, error) {
			v, err := inner(i)
			if err == nil {
				mu.Lock()
				done++
				cfg.Progress(done, n)
				mu.Unlock()
			}
			return v, err
		}
	}
	return pool.Map(cfg.workers(), n, cell)
}

// sweepRows is sweep specialized to the common case of exactly one table
// row per cell, appending the rows to t in cell order.
func sweepRows(cfg Config, t *Table, base *rng.Source, n int, fn func(cell int, src *rng.Source) ([]string, error)) error {
	rows, err := sweep(cfg, base, n, fn)
	if err != nil {
		return err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return nil
}
