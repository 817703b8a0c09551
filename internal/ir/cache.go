package ir

import (
	"sync"

	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// Program cache: compiled programs are pure functions of the (spec,
// prior) identity keys, so they are compiled once per key and shared by
// every estimator call, job submission and sweep cell that names the same
// protocol — repeated submissions skip compilation entirely. The map is
// keyed by the identity string itself, "e|" + specKey + "|" + priorKey,
// so a lookup is a plain string compare.
//
// Negative results are cached too: a keyed spec that fails the
// eligibility gates is remembered as nil, so the dynamic fallback pays
// the compile walk at most once per key.
//
// The same map memoizes other pure functions of an identity through Memo:
// core keeps its exact cost reports here, so a process enumerates each
// (spec, prior, limits) transcript tree once. Memo entries share the cap
// and ResetProgramCache with the programs.

// cacheCap bounds the resident entry count, programs and memoized values
// together. Programs are small (tables of a ≤64k-state protocol), memoized
// values smaller, and the workloads cycle through far fewer distinct
// (spec, prior) pairs than this; eviction exists only as a safety valve,
// dropping an arbitrary entry.
const cacheCap = 512

type programCache struct {
	mu sync.Mutex
	m  map[string]any // *Program (nil = known-ineligible) or a Memo value
}

var cache = programCache{m: make(map[string]any)}

func (c *programCache) lookup(key string) (any, bool) {
	c.mu.Lock()
	v, ok := c.m[key]
	c.mu.Unlock()
	return v, ok
}

func (c *programCache) store(key string, v any) {
	c.mu.Lock()
	if _, ok := c.m[key]; !ok && len(c.m) >= cacheCap {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[key] = v
	c.mu.Unlock()
}

// cached wraps a compile behind the cache with hit/miss telemetry and an
// ir.compile span, whose duration is the ir.compile_ns sample. compile
// runs outside the lock; concurrent misses on the same key compile
// redundantly and one result wins — harmless, since programs are
// immutable and identical.
func cached(key string, rec telemetry.Recorder, cause causal.Context, compile func() *Program) *Program {
	if v, ok := cache.lookup(key); ok {
		if rec != nil {
			rec.Count(telemetry.IRProgramHits, 1)
		}
		return v.(*Program)
	}
	if rec != nil {
		rec.Count(telemetry.IRProgramMisses, 1)
	}
	span := cause.StartSpan(rec, causal.IRCompile)
	p := compile()
	telemetry.Observe(rec, telemetry.IRCompileNs, float64(span.End()))
	cache.store(key, p)
	return p
}

// EstimatorProgram returns the cached estimator program for a keyed
// (spec, prior) pair, compiling on first use; a compile is traced under
// cause. Returns nil when the pair is ineligible; the caller falls back
// dynamically.
func EstimatorProgram(spec Spec, prior Prior, specKey, priorKey string, rec telemetry.Recorder, cause causal.Context) *Program {
	return cached("e|"+specKey+"|"+priorKey, rec, cause, func() *Program { return CompileEstimator(spec, prior) })
}

// Memo returns the value cached under key, calling compute on a miss.
// Callers prefix their keys so they cannot collide with the "e|" program
// keys, and the key must name every input compute reads. As in
// cached, compute runs outside the lock and concurrent misses compute
// redundantly; a failed compute stores nothing, so the next call retries.
// The value is shared by every later hit: callers must not mutate it and
// should hand out copies. Memo records no ir.program_* telemetry.
func Memo[T any](key string, compute func() (T, error)) (T, error) {
	if v, ok := cache.lookup(key); ok {
		return v.(T), nil
	}
	v, err := compute()
	if err == nil {
		cache.store(key, v)
	}
	return v, err
}

// ResetProgramCache empties the cache, programs and Memo values alike, as
// if the process had just started. Production code never needs it; tests
// call it to assert on hit/miss telemetry, and the service benchmark calls
// it before each set-up repeat so that repeat pays a fresh process's
// compiles and exact enumerations.
func ResetProgramCache() {
	cache.mu.Lock()
	cache.m = make(map[string]any)
	cache.mu.Unlock()
}
