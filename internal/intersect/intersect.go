// Package intersect implements sparse set intersection in the broadcast
// model: k players each hold a set of at most s elements of [n] and decide
// whether some element is common to all.
//
// The introduction of the paper recalls Håstad and Wigderson's result that
// two-player disjointness under the promise |X| = |Y| = s needs only O(s)
// bits — the naive O(s log n) factor is avoidable. This package realizes
// that phenomenon in the broadcast model with a hashing protocol:
//
//  1. all players share a public random hash h : [n] → [2s];
//  2. player 1 writes the bitmap of h(X_1) (2s bits); each subsequent
//     player writes the bitmap of the hashes of its elements that survived
//     the previous bitmap;
//  3. player 1 lists its elements whose hash survived all k bitmaps
//     (expected O(1) of them plus collision noise), and every other player
//     confirms membership of each listed element with one bit.
//
// Communication is 2sk + O(survivors·(log n + k)) — independent of log n
// up to the final exact verification of an expected-constant number of
// candidates. The Naive baseline (player 1 ships its set explicitly) pays
// the s·log n factor, which experiment E13 exhibits.
package intersect

import (
	"fmt"

	"broadcastic/internal/bitvec"
	"broadcastic/internal/encoding"
	"broadcastic/internal/rng"
)

// bitmapPool recycles the Phase A hash bitmaps across protocol runs.
var bitmapPool bitvec.Pool

// Instance is a sparse intersection input: per-player element sets over
// universe [n], each of size at most s.
type Instance struct {
	N    int
	S    int
	Sets [][]int // sorted, distinct elements per player
}

// NewInstance validates a sparse instance.
func NewInstance(n, s int, sets [][]int) (*Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("intersect: universe %d < 1", n)
	}
	if s < 1 {
		return nil, fmt.Errorf("intersect: sparsity %d < 1", s)
	}
	if len(sets) < 1 {
		return nil, fmt.Errorf("intersect: no players")
	}
	for i, set := range sets {
		if len(set) > s {
			return nil, fmt.Errorf("intersect: player %d holds %d > s=%d elements", i, len(set), s)
		}
		prev := -1
		for _, e := range set {
			if e <= prev || e < 0 || e >= n {
				return nil, fmt.Errorf("intersect: player %d set not sorted/distinct in [0,%d): %v", i, n, set)
			}
			prev = e
		}
	}
	return &Instance{N: n, S: s, Sets: sets}, nil
}

// Generate samples an instance: each player draws exactly s distinct
// elements; when common is true, one shared element is planted in all sets.
func Generate(src *rng.Source, n, s, k int, common bool) (*Instance, error) {
	if src == nil {
		return nil, fmt.Errorf("intersect: nil randomness source")
	}
	if s > n {
		return nil, fmt.Errorf("intersect: sparsity %d exceeds universe %d", s, n)
	}
	if k < 1 {
		return nil, fmt.Errorf("intersect: player count %d < 1", k)
	}
	sets := make([][]int, k)
	var shared int
	if common {
		shared = src.Intn(n)
	}
	for i := 0; i < k; i++ {
		set := src.SampleWithoutReplacement(n, s)
		if common {
			// Replace one element with the shared one if absent.
			found := false
			for _, e := range set {
				if e == shared {
					found = true
					break
				}
			}
			if !found {
				set[src.Intn(len(set))] = shared
				sortInts(set)
				set = dedup(set)
			}
		}
		sets[i] = set
	}
	return NewInstance(n, s, sets)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

func dedup(xs []int) []int {
	out := xs[:0]
	for i, v := range xs {
		if i == 0 || v != xs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Truth reports whether some element is common to all sets.
func (inst *Instance) Truth() (int, bool) {
	if len(inst.Sets) == 0 {
		return 0, false
	}
	counts := make(map[int]int)
	for _, set := range inst.Sets {
		for _, e := range set {
			counts[e]++
		}
	}
	for e, c := range counts {
		if c == len(inst.Sets) {
			return e, true
		}
	}
	return 0, false
}

// Outcome reports a protocol run.
type Outcome struct {
	Common  bool // some element common to all sets
	Witness int  // a common element when Common
	Bits    int
}

// SolveHashed runs the hashing protocol described in the package comment.
// publicSeed seeds the shared hash and must be common knowledge.
func SolveHashed(inst *Instance, publicSeed uint64) (*Outcome, error) {
	if inst == nil {
		return nil, fmt.Errorf("intersect: nil instance")
	}
	k := len(inst.Sets)
	m := 2 * inst.S // bitmap width

	hash := func(e int) int {
		h := rng.New(publicSeed ^ (uint64(e)+1)*0x9e3779b97f4a7c15)
		return h.Intn(m)
	}

	bits := 0
	// Phase A: cascading bitmaps. Simulated sequentially; every message is
	// charged exactly (m bits each). The two bitmaps come from the package
	// pool so repeated trials (E13 sweeps many instances) allocate nothing.
	prev, err := bitmapPool.Get(m)
	if err != nil {
		return nil, err
	}
	defer bitmapPool.Put(prev)
	cur, err := bitmapPool.Get(m)
	if err != nil {
		return nil, err
	}
	defer bitmapPool.Put(cur)
	prev.SetAll() // player 1 filters against "everything"
	for i := 0; i < k; i++ {
		cur.ClearAll()
		for _, e := range inst.Sets[i] {
			if prev.Get(hash(e)) {
				if err := cur.Set(hash(e)); err != nil {
					return nil, err
				}
			}
		}
		prev, cur = cur, prev
		bits += m
	}

	// Phase B: player 1 lists its surviving elements exactly.
	var candidates []int
	for _, e := range inst.Sets[0] {
		if prev.Get(hash(e)) {
			candidates = append(candidates, e)
		}
	}
	width := encoding.FixedWidth(uint64(inst.N))
	bits += encoding.NonNegLen(uint64(len(candidates))) + len(candidates)*width

	// Phase C: every other player confirms each candidate with one bit.
	membership := make([]bool, len(candidates))
	for ci := range membership {
		membership[ci] = true
	}
	for i := 1; i < k; i++ {
		has := make(map[int]bool, len(inst.Sets[i]))
		for _, e := range inst.Sets[i] {
			has[e] = true
		}
		for ci, e := range candidates {
			if !has[e] {
				membership[ci] = false
			}
		}
		bits += len(candidates)
	}
	for ci, ok := range membership {
		if ok {
			return &Outcome{Common: true, Witness: candidates[ci], Bits: bits}, nil
		}
	}
	return &Outcome{Common: false, Bits: bits}, nil
}

// SolveNaive is the baseline: player 1 writes its whole set explicitly
// (s·⌈log₂ n⌉ bits) and every other player answers with a membership
// bitmap over that list. Its cost carries the log n factor the hashed
// protocol avoids.
func SolveNaive(inst *Instance) (*Outcome, error) {
	if inst == nil {
		return nil, fmt.Errorf("intersect: nil instance")
	}
	k := len(inst.Sets)
	width := encoding.FixedWidth(uint64(inst.N))
	list := inst.Sets[0]
	bits := encoding.NonNegLen(uint64(len(list))) + len(list)*width

	membership := make([]bool, len(list))
	for i := range membership {
		membership[i] = true
	}
	for i := 1; i < k; i++ {
		has := make(map[int]bool, len(inst.Sets[i]))
		for _, e := range inst.Sets[i] {
			has[e] = true
		}
		for ci, e := range list {
			if !has[e] {
				membership[ci] = false
			}
		}
		bits += len(list)
	}
	for ci, ok := range membership {
		if ok {
			return &Outcome{Common: true, Witness: list[ci], Bits: bits}, nil
		}
	}
	return &Outcome{Common: false, Bits: bits}, nil
}
