package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// Program cache: compiled programs are pure functions of the (spec,
// prior) identity keys, so they are compiled once per key and shared by
// every estimator call, job submission and sweep cell that names the same
// protocol — repeated submissions skip compilation entirely. Entries are
// content-addressed the same way the jobs result cache addresses results:
// the canonical identity string is hashed with SHA-256, and the hex
// digest is exposed on the Program (KeySHA) so the two cache layers speak
// the same key discipline. The in-memory map is keyed by the preimage to
// keep the hot lookup a plain string compare.
//
// Negative results are cached too: a keyed spec that fails the
// eligibility gates is remembered as nil, so the dynamic fallback pays
// the compile walk at most once per key.

// cacheCap bounds the resident program count. Programs are small (tables
// of a ≤64k-state protocol), and the workloads cycle through far fewer
// distinct (spec, prior) pairs than this; eviction exists only as a
// safety valve, dropping an arbitrary entry.
const cacheCap = 512

type programCache struct {
	mu sync.Mutex
	m  map[string]*Program // nil value = known-ineligible
}

var cache = programCache{m: make(map[string]*Program)}

// keySHA is the content address of a cache key: SHA-256 hex, the exact
// form the jobs result cache uses (see jobs.Spec.Key).
func keySHA(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (c *programCache) lookup(key string) (*Program, bool) {
	c.mu.Lock()
	p, ok := c.m[key]
	c.mu.Unlock()
	return p, ok
}

func (c *programCache) store(key string, p *Program) {
	c.mu.Lock()
	if _, ok := c.m[key]; !ok && len(c.m) >= cacheCap {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[key] = p
	c.mu.Unlock()
}

// cached wraps a compile behind the cache with hit/miss telemetry and an
// ir.compile span, whose duration is the ir.compile_ns sample. compile
// runs outside the lock; concurrent misses on the same key compile
// redundantly and one result wins — harmless, since programs are
// immutable and identical.
func cached(key string, rec telemetry.Recorder, cause causal.Context, compile func() *Program) *Program {
	if p, ok := cache.lookup(key); ok {
		if rec != nil {
			rec.Count(telemetry.IRProgramHits, 1)
		}
		return p
	}
	if rec != nil {
		rec.Count(telemetry.IRProgramMisses, 1)
	}
	span := cause.StartSpan(rec, causal.IRCompile)
	p := compile()
	telemetry.Observe(rec, telemetry.IRCompileNs, float64(span.End()))
	if p != nil {
		p.keySHA = keySHA(key)
	}
	cache.store(key, p)
	return p
}

// SpecProgram returns the cached control-surface program for a keyed
// spec, compiling on first use. specKey must be the spec's IRKey. Returns
// nil when the spec is ineligible; the caller falls back dynamically.
func SpecProgram(spec Spec, specKey string, rec telemetry.Recorder) *Program {
	return cached("s|"+specKey, rec, causal.Context{}, func() *Program { return CompileSpec(spec) })
}

// EstimatorProgram returns the cached estimator program for a keyed
// (spec, prior) pair, compiling on first use; a compile is traced under
// cause. Returns nil when the pair is ineligible; the caller falls back
// dynamically.
func EstimatorProgram(spec Spec, prior Prior, specKey, priorKey string, rec telemetry.Recorder, cause causal.Context) *Program {
	return cached("e|"+specKey+"|"+priorKey, rec, cause, func() *Program { return CompileEstimator(spec, prior) })
}

// ResetProgramCache empties the program cache. It exists for tests that
// assert on hit/miss telemetry; production code never needs it.
func ResetProgramCache() {
	cache.mu.Lock()
	cache.m = make(map[string]*Program)
	cache.mu.Unlock()
}
