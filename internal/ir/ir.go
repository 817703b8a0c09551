// Package ir compiles a declarative broadcast protocol (the Spec shape
// defined by internal/core) together with an input prior into a flat,
// immutable Program: a table-driven form of the protocol's control
// surface — next-speaker and alphabet per transcript state, per-(state,
// player-input) message distributions with pre-built CDF samplers, and
// the bit charge of every edge — plus the prior's sampler and a Lemma 3
// scoring table. The Program drives the Monte-Carlo estimator's shard
// loop with zero interface calls and zero steady-state allocations.
//
// Bit-identity contract. The shard loop is pinned bit-identical to the
// dynamic estimator it replaces:
//
//   - Float semantics: the per-leaf q-factors are accumulated at compile
//     time by the exact multiply order the dynamic walk uses
//     (q[v] = saved[v]·P(sym|v) along the path), and every scoring table —
//     per leaf or per edge, see below — is built through
//     info.QDivergenceSum, the same function the scalar estimator calls,
//     so the values agree by shared code, not replication.
//   - Sampling: sampleCum replicates prob.Dist's cached binary search
//     over the identical in-order partial sums; prob pins that search
//     bit-equal to the linear scan, so table sampling returns the exact
//     outcome Dist.Sample would for the same uniform.
//   - Draw alignment: a dynamic estimator sample consumes 1+k+T uniforms
//     (aux, k inputs, one per message even for point masses). The
//     compiled loop reads only the positions it needs via rng.Lookahead
//     and reconciles with one rng.Skip — same stream values, same final
//     state, at any worker count.
//
// Scoring. Lemma 3 gives the transcript likelihood a product form, so the
// estimator's inner term Σ_i D(posterior_i ‖ prior_i) is a sum over
// players. An estimator program scores per edge when every edge leads to
// a leaf or a strictly higher-numbered speaker (so no player speaks twice
// and path order is player order) and every distinct prior row scores
// exactly +0.0 for a silent player: the inner term is then the path-order
// sum of one precomputed term per (prior row, edge), bit-identical to the
// per-leaf sum because the skipped silent terms are exact no-ops. Every other
// estimator program scores from a per-(aux, leaf) table. Specs that name
// their sufficient state (StateKeyer) compile per-edge programs with
// equivalent prefixes merged, so the state count no longer grows with the
// transcript tree.
//
// Eligibility. Compilation is gated: bounded state count (≤ 64k interior
// states), bounded input domain, edge and table budgets, and the dynamic
// engine's depth limit. Anything outside the gates — or any spec/prior
// that errors while being walked — compiles to nil, and callers fall
// back to the dynamic path, which surfaces the identical behavior.
// DESIGN.md §13 documents the format and the full equivalence argument.
package ir

import "broadcastic/internal/prob"

// Spec is the protocol shape the compiler consumes. It mirrors
// internal/core.Spec method-for-method over bare []int transcripts so the
// two packages need no import cycle; core adapts its Spec with a zero-cost
// wrapper. All methods must be pure functions of their arguments.
type Spec interface {
	NumPlayers() int
	InputSize() int
	NextSpeaker(t []int) (player int, done bool, err error)
	MessageAlphabet(t []int) (int, error)
	MessageDist(t []int, player, input int) (prob.Dist, error)
	MessageBits(t []int, symbol int) (int, error)
	Output(t []int) (int, error)
}

// Prior mirrors internal/core.Prior: an input distribution whose players
// are independent conditioned on the auxiliary variable. core.Prior
// satisfies it structurally (no transcript appears in its signatures).
type Prior interface {
	NumPlayers() int
	InputSize() int
	AuxSize() int
	AuxProb(z int) float64
	PlayerDist(z, player int) (prob.Dist, error)
}

// Keyer is implemented by specs and priors that can name their own
// semantics with a stable identity string. Only keyed (spec, prior) pairs
// participate in the program cache — an unkeyed value would force a full
// compile walk on every call, which could cost more than the dynamic path
// it replaces. The cache also memoizes core.ExactCosts reports under the
// same keys, so a key must name every parameter that changes the spec's
// behavior or the prior's distribution: two values with equal keys share
// one compiled program and one exact report for the life of the process.
type Keyer interface {
	IRKey() string
}

// StateKeyer is implemented by specs whose transcript prefixes collapse to
// a small sufficient state. The contract: any two prefixes the protocol
// can reach that have equal length and equal StateKey have identical
// continuations — the same speakers, alphabets, message distributions,
// bit charges and outputs on every extension. Estimator compilation then
// merges such prefixes into one state. StateKey must be a pure function
// of t and must not retain it.
type StateKeyer interface {
	StateKey(t []int) uint64
}

// Compilation gates. A spec outside any bound compiles to nil. The depth
// gate mirrors core's transcript-tree depth limit so a compiled program
// can never accept a transcript the dynamic engine would refuse.
const (
	maxInputSize  = 4096    // immediate bail: per-(state,input) tables explode past this
	maxStates     = 1 << 16 // interior transcript states
	maxDistCells  = 1 << 20 // states × inputSize message-distribution cells
	maxEdges      = 1 << 20 // Σ alphabet over states
	maxAuxCells   = 1 << 20 // auxSize × players and auxSize × leaves, per-leaf scoring
	maxLeafQCells = 1 << 22 // leaves × players × inputSize q-factor floats
	maxRowCells   = 1 << 22 // auxSize × players row-index cells (μ at k=2048)
	maxRows       = 1 << 16 // distinct prior rows (the row index is a uint16)
	maxEdgeTerms  = 1 << 22 // distinct prior rows × edges, per-edge scoring
	maxDepth      = 4096    // mirrors core's defaultMaxDepth
)
