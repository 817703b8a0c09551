// Package jobs turns the experiment registry into a multi-tenant job
// service: clients submit typed, validated JobSpecs, a bounded worker
// fleet executes them on per-tenant FIFO queues with round-robin dispatch
// and queue-cap backpressure, and a content-addressed result cache serves
// repeated queries without recomputation.
//
// The cache is sound because every run in this repository is
// seed-deterministic: the same (experiment, grid, seed, scale) always
// renders a bit-identical table, so a result is fully determined by the
// canonical spec plus the binary that computed it. Cache keys are
// SHA-256 over (build revision, canonical spec JSON); a new binary
// invalidates every entry by construction. Fields that provably cannot
// change output — the worker count, by the harness's worker-invariance
// contract — are excluded from the canonical form, so specs differing
// only in execution hints share one entry.
//
// The service holds its queued and running jobs and the latest Retain
// finished ones; older finished jobs are retired, so its memory depends
// on its configuration, not its uptime. A retired job's result stays
// reachable through the cache: resubmitting its spec is a hit while the
// cache still holds it.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"broadcastic/internal/buildinfo"
	"broadcastic/internal/faults"
	"broadcastic/internal/sim"
)

// Admission limits enforced by Validate. They bound what one job may cost,
// not what the engines could run: a single service must stay responsive
// under arbitrary client input.
const (
	// MaxGridPoints caps the length of an Ns or Ks override.
	MaxGridPoints = 16
	// MaxN caps any universe-size override.
	MaxN = 1 << 20
	// MaxK caps any player-count override.
	MaxK = 4096
	// MaxWorkers caps the per-job worker hint.
	MaxWorkers = 1024
	// MaxFaultProb caps each fault probability: above it, retransmission
	// storms make run time balloon without measuring anything new.
	MaxFaultProb = 0.5
)

// JobSpec is one parameterized run request. The zero values of the
// optional fields mean "the experiment's EXPERIMENTS.md defaults".
type JobSpec struct {
	// Experiment is a sim registry ID ("E1".."E21").
	Experiment string `json:"experiment"`
	// Seed roots every random stream of the run; it is the only source of
	// nondeterminism, so (spec, binary) fully determines the result.
	Seed uint64 `json:"seed"`
	// Scale is "quick" or "full".
	Scale string `json:"scale"`
	// Ns and Ks override the experiment's sweep grid where sim.Caps says
	// the experiment honors them.
	Ns []int `json:"ns,omitempty"`
	Ks []int `json:"ks,omitempty"`
	// Faults overrides the networked experiment's fault mix
	// (internal/faults syntax; recoverable kinds only).
	Faults string `json:"faults,omitempty"`
	// Workers hints how many goroutines the run's sweeps may use
	// (0 = one per CPU). Execution-only: output is worker-invariant, so
	// this field is excluded from the cache key.
	Workers int `json:"workers,omitempty"`
}

// scale maps the spec's scale string to the sim constant.
func (s JobSpec) scale() (sim.Scale, error) {
	switch s.Scale {
	case "quick":
		return sim.Quick, nil
	case "full":
		return sim.Full, nil
	default:
		return 0, fmt.Errorf("jobs: unknown scale %q (want quick or full)", s.Scale)
	}
}

// experimentIDs is the registry's ID set, built once.
var experimentIDs = func() map[string]bool {
	ids := make(map[string]bool)
	for _, exp := range sim.Experiments() {
		ids[exp.ID] = true
	}
	return ids
}()

// Validate checks the spec strictly: unknown experiments, scales, grid
// overrides the experiment ignores, out-of-range values and
// determinism-breaking fault kinds are all rejected up front, so nothing
// invalid ever reaches a queue or a cache key.
func (s JobSpec) Validate() error {
	if !experimentIDs[s.Experiment] {
		return fmt.Errorf("jobs: unknown experiment %q", s.Experiment)
	}
	if _, err := s.scale(); err != nil {
		return err
	}
	if s.Workers < 0 || s.Workers > MaxWorkers {
		return fmt.Errorf("jobs: workers %d outside [0,%d]", s.Workers, MaxWorkers)
	}
	caps := sim.Caps(s.Experiment)
	if len(s.Ns) > 0 && !caps.Ns {
		return fmt.Errorf("jobs: experiment %s does not honor an n-grid override", s.Experiment)
	}
	if len(s.Ks) > 0 && !caps.Ks {
		return fmt.Errorf("jobs: experiment %s does not honor a k-grid override", s.Experiment)
	}
	if s.Faults != "" && !caps.Faults {
		return fmt.Errorf("jobs: experiment %s does not honor a fault-plan override", s.Experiment)
	}
	if len(s.Ns) > MaxGridPoints || len(s.Ks) > MaxGridPoints {
		return fmt.Errorf("jobs: grid override longer than %d points", MaxGridPoints)
	}
	for _, n := range s.Ns {
		if n < 8 || n > MaxN {
			return fmt.Errorf("jobs: n=%d outside [8,%d]", n, MaxN)
		}
	}
	for _, k := range s.Ks {
		if k < 2 || k > MaxK {
			return fmt.Errorf("jobs: k=%d outside [2,%d]", k, MaxK)
		}
	}
	if s.Faults != "" {
		plan, err := faults.Parse(s.Faults)
		if err != nil {
			return err
		}
		// Delay faults decide retransmissions by wall clock, crashes change
		// the answer itself: both would break the "result is a pure function
		// of the spec" contract the cache is built on.
		if plan.DelayProb > 0 {
			return fmt.Errorf("jobs: delay faults are wall-clock-dependent and not cacheable")
		}
		if len(plan.CrashTurns) > 0 {
			return fmt.Errorf("jobs: crash faults are not supported by the job service")
		}
		for _, pr := range []float64{plan.Drop, plan.Duplicate, plan.Corrupt} {
			if pr > MaxFaultProb {
				return fmt.Errorf("jobs: fault probability %v above service cap %v", pr, MaxFaultProb)
			}
		}
	}
	return nil
}

// canonicalSpec is the cache-key view of a spec: output-affecting fields
// only, in fixed declaration order, with the fault plan re-rendered through
// faults.Plan.String so syntactic variants ("dup=0.1,drop=0.2" vs
// "drop=0.2,dup=0.1") collapse to one encoding.
type canonicalSpec struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Scale      string `json:"scale"`
	Ns         []int  `json:"ns,omitempty"`
	Ks         []int  `json:"ks,omitempty"`
	Faults     string `json:"faults,omitempty"`
}

// Canonical returns the spec's canonical JSON encoding — the byte string
// the cache key hashes. It fails only on a spec that Validate rejects.
func (s JobSpec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := canonicalSpec{
		Experiment: s.Experiment,
		Seed:       s.Seed,
		Scale:      s.Scale,
		Ns:         s.Ns,
		Ks:         s.Ks,
	}
	if s.Faults != "" {
		plan, err := faults.Parse(s.Faults)
		if err != nil {
			return nil, err
		}
		c.Faults = plan.String()
	}
	return json.Marshal(c)
}

// Key returns the content address of the spec's result under the given
// build identity: hex SHA-256 of buildSHA || 0x00 || canonical JSON.
func (s JobSpec) Key(buildSHA string) (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(buildSHA))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// BuildSHA resolves the running binary's identity for cache keying. It
// folds in the VCS revision, the dirty flag and the toolchain; unstamped
// binaries (tests, go run) fall back to the toolchain alone, which is the
// honest statement that their results should not outlive the process.
func BuildSHA() string {
	info := buildinfo.Resolve()
	sha := info.Revision
	if info.Modified {
		sha += "+dirty"
	}
	return sha + "@" + info.GoVersion
}
