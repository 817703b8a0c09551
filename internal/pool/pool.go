// Package pool is the deterministic worker-pool execution engine behind the
// parallel experiment harness and the sharded estimators.
//
// The contract that makes parallelism safe for a reproducibility-first
// repository: work is expressed as an indexed set of independent cells, each
// cell owns all of its mutable state (in particular its own rng.Source,
// derived serially up front via rng.Source.SplitN), and results are returned
// in cell order. Under that contract the output of Map is bit-identical for
// every worker count — goroutines only change which wall-clock instant a
// cell runs at, never what it computes or where its result lands.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n > 0 is used as-is, anything
// else (the "default" zero value) means one worker per available CPU.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map evaluates fn(0), …, fn(n-1) using at most workers goroutines and
// returns the results in index order. fn must not share mutable state
// between cells. If any cell fails, Map returns one of the failing cells'
// errors and stops handing out new cells; already-running cells finish
// first, so fn is never abandoned mid-flight.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n <= 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil, firstErr
	}
	return out, nil
}
