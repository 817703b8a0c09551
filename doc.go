// Package broadcastic reproduces "On Information Complexity in the
// Broadcast Model" (Braverman & Oshman, PODC 2015) as an executable Go
// library: the shared-blackboard communication model, the optimal
// Θ(n log k + k) set-disjointness protocol, an exact information-cost
// engine built on the paper's Lemma 3 product decomposition, and the
// Section 6 compression machinery (Lemma 7 rejection sampling, Theorem 3
// amortization).
//
// Protocols run on two interchangeable runtimes: the sequential
// blackboard and internal/netrun, a concurrent networked runtime (one
// goroutine per player, pluggable chan/pipe/TCP transports, seeded fault
// injection) whose board transcripts are bit-identical to the sequential
// execution.
//
// The library lives under internal/; README.md has the package map.
// cmd/experiments runs the experiment suite (E1–E21), the Example
// functions of internal/disj, radio, compress and core are worked examples
// with pinned output, and bench_test.go runs the suite as benchmarks (one
// per reproduced claim, E1–E21).
package broadcastic
