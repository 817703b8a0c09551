package ir

import (
	"math"
	"sync"

	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// Node encoding inside the flat tables: values ≥ 0 are interior state
// ids, values in [-numLeaves, -1] encode leaf -(v+1), and nodeNone marks
// edges no execution can reach (symbols with zero probability under every
// input).
const nodeNone = int32(math.MinInt32)

// poolDist is one deduplicated distribution of the program's pool, in the
// pre-built CDF form the executors sample from. cum holds the identical
// in-order partial sums prob.Dist's cached sampler computes, last the
// largest positive-mass outcome (the floating-point-slack fallback), and
// det the single outcome when the distribution is a point mass (−1
// otherwise) — the executors skip the table walk, and where draw
// positions allow it the uniform read, for deterministic cells.
type poolDist struct {
	cum  []float64
	last int32
	det  int32
	dist prob.Dist // original form, for building the scoring tables
}

// sampleCum maps a uniform draw u ∈ [0,1) to an outcome by the exact
// branchless lower-bound search prob.Dist.sampleIndex performs over its
// cached prefix sums. prob pins that search bit-equal to the linear scan
// on every support, so this returns precisely what Dist.Sample would.
func sampleCum(cum []float64, last int32, u float64) int32 {
	base, n := 0, len(cum)
	for n > 1 {
		half := n >> 1
		if cum[base+half-1] <= u {
			base += half
		}
		n -= half
	}
	if u < cum[base] {
		return int32(base)
	}
	return last
}

// Program is a compiled estimator: the control surface of a (Spec, Prior)
// pair flattened into immutable lookup tables, with the prior's sampler
// and the scoring table beside them. A Program is read-only after
// compilation and safe for concurrent use; per-execution state lives in
// pooled scratch.
type Program struct {
	k         int
	inputSize int
	numStates int
	numLeaves int
	root      int32 // encoded start node (a leaf when the protocol is empty)

	// Per-interior-state tables.
	speaker   []int32 // who speaks
	alphabet  []int32 // message alphabet size
	distBase  []int32 // msgDist[distBase[s]+input] = pool id of the speaker's dist
	transBase []int32 // edges/symBits[transBase[s]+sym]
	msgDist   []int32
	edges     []int32 // encoded next node per (state, symbol)
	symBits   []int32 // declared MessageBits per (state, symbol)
	// fused[s*inputSize+v] short-circuits a step when the message for
	// input v is deterministic (see fusedCell).
	fused []fusedCell

	pool []poolDist

	speakOnce bool // on no root-to-leaf path does a player speak twice

	// Prior tables.
	auxCum  []float64
	auxLast int32
	auxDet  int32
	rows    []int32  // pool id of each distinct prior conditional row
	rowOf   []uint16 // auxSize × k: row index of player i's conditional given z
	// rowTwo is the binary-input fast-loop form of rows (inputSize == 2
	// only, nil otherwise): the exact linear-scan thresholds of each row,
	// so the hot shard loop draws an input with two compares instead of a
	// pool indirection.
	rowTwo []twoPoint
	// Scoring: exactly one of the two tables is set. edgeTerm (per-edge
	// programs) holds rows × numEdges divergence terms, summed along the
	// path; inner (per-leaf programs) holds auxSize × numLeaves
	// precomputed Σ_i D(post_i ‖ prior_i).
	edgeTerm []float64
	numEdges int
	inner    []float64

	scratch sync.Pool
}

// NumStates returns the number of interior transcript states.
func (p *Program) NumStates() int { return p.numStates }

// PerEdge reports whether the program scores per edge (see the package
// comment) rather than from a per-leaf table.
func (p *Program) PerEdge() bool { return p.edgeTerm != nil }

// fusedCell is one (state, input) cell of the fused table: when the
// speaker's message for that input is a point mass, next is the node its
// symbol leads to and edge that symbol's edge index (into edges, symBits
// and the per-edge terms); next is nodeNone when the cell needs a real
// sample. Keeping next beside edge keeps the walk's node-to-node chain at
// one load per step.
type fusedCell struct {
	next, edge int32
}

// twoPoint is a binary conditional row in flattened sampling form. c0 and
// c1 are the in-order partial sums (c1 duplicates c0 for single-outcome
// rows), last the positive-mass fallback, det the single outcome of a
// point mass (−1 otherwise). Sampling "x = 0 if u < c0, else 1 if u < c1,
// else last" is exactly prob.Dist's linear scan.
type twoPoint struct {
	c0, c1 float64
	det    int32
	last   int32
}

// newTwoPoint flattens a pooled conditional of at most two outcomes.
func newTwoPoint(pd *poolDist) twoPoint {
	tp := twoPoint{c0: pd.cum[0], c1: pd.cum[0], det: pd.det, last: pd.last}
	if len(pd.cum) > 1 {
		tp.c1 = pd.cum[1]
	}
	return tp
}

// sample maps a uniform u ∈ [0,1) to an outcome by the linear scan.
func (t *twoPoint) sample(u float64) int32 {
	if u < t.c0 {
		return 0
	}
	if u < t.c1 {
		return 1
	}
	return t.last
}

// shardScratch is the pooled per-shard state of the estimator executor:
// the lazily sampled input tuple with epoch stamps marking which entries
// belong to the current sample. Stamping makes per-sample reset O(1)
// instead of O(k).
type shardScratch struct {
	x     []int32
	stamp []uint32
	epoch uint32
}

func (p *Program) getScratch() *shardScratch {
	if v := p.scratch.Get(); v != nil {
		return v.(*shardScratch)
	}
	return &shardScratch{x: make([]int32, p.k), stamp: make([]uint32, p.k)}
}

func (p *Program) putScratch(sc *shardScratch) { p.scratch.Put(sc) }

// Shard draws count estimator samples from src and returns the raw
// moments (Σ inner, Σ inner², Σ bits) — the exact accumulation the
// dynamic cicShard performs, bit for bit.
//
// Draw discipline: a dynamic sample consumes uniforms at positions
// 0 (aux), 1..k (inputs, in player order), 1+k+t (message t). The
// compiled loop peeks only the positions it needs with rng.Lookahead —
// deterministic cells skip even the peek — and advances the stream past
// all 1+k+T positions with one Skip, so the stream state after every
// sample is identical to the dynamic path's.
//
// Bits are the integer sum of the path's per-edge charges, which equals
// the leaf's total charge on tree programs and is the only charge merged
// programs have.
func (p *Program) Shard(src *rng.Source, count int) (sum, sumSq, bitsSum float64) {
	if p.speakOnce && p.rowTwo != nil {
		return p.shardBinary(src, count)
	}
	sc := p.getScratch()
	defer p.putScratch(sc)

	k := p.k
	k64 := uint64(k)
	inputSize := p.inputSize
	for s := 0; s < count; s++ {
		var z int32
		if p.auxDet >= 0 {
			z = p.auxDet
		} else {
			z = sampleCum(p.auxCum, p.auxLast, rng.U01(src.Lookahead(0)))
		}
		sc.epoch++
		if sc.epoch == 0 { // uint32 wrap: stale stamps could collide
			for i := range sc.stamp {
				sc.stamp[i] = 0
			}
			sc.epoch = 1
		}
		rowOf := p.rowOf[int(z)*k : int(z)*k+k]

		node := p.root
		depth := uint64(0)
		in, bits := 0.0, 0
		for node >= 0 {
			st := node
			sp := p.speaker[st]
			r := rowOf[sp]
			var x int32
			if sc.stamp[sp] == sc.epoch {
				x = sc.x[sp]
			} else {
				pd := &p.pool[p.rows[r]]
				if pd.det >= 0 {
					x = pd.det
				} else {
					x = sampleCum(pd.cum, pd.last, rng.U01(src.Lookahead(1+uint64(sp))))
				}
				sc.x[sp] = x
				sc.stamp[sp] = sc.epoch
			}
			f := p.fused[int(st)*inputSize+int(x)]
			e := f.edge
			if node = f.next; node == nodeNone {
				md := &p.pool[p.msgDist[int(p.distBase[st])+int(x)]]
				e = p.transBase[st] + sampleCum(md.cum, md.last, rng.U01(src.Lookahead(1+k64+depth)))
				node = p.edges[e]
			}
			if p.edgeTerm != nil {
				in += p.edgeTerm[int(r)*p.numEdges+int(e)]
			}
			bits += int(p.symBits[e])
			depth++
		}
		src.Skip(1 + k64 + depth)

		if p.edgeTerm == nil {
			in = p.inner[int(z)*p.numLeaves+int(-node-1)]
		}
		sum += in
		sumSq += in * in
		bitsSum += float64(bits)
	}
	return sum, sumSq, bitsSum
}

// shardBinary is Shard for programs with binary inputs and no player
// speaking twice on any path — the dominant estimator shape (AND_k
// chains under μ). Input draws become two compares against flat
// threshold rows, and the once-per-path guarantee removes the lazy-input
// stamp bookkeeping, so a step is a handful of loads with no pool
// indirection. Draw positions and outcomes are identical to the general
// loop's: the same positions are peeked with the same uniforms, and the
// threshold scan is exactly prob.Dist's linear scan on a 2-row.
func (p *Program) shardBinary(src *rng.Source, count int) (sum, sumSq, bitsSum float64) {
	k := p.k
	k64 := uint64(k)
	auxCum, auxLast, auxDet := p.auxCum, p.auxLast, p.auxDet
	speaker, fused, edges, symBits := p.speaker, p.fused, p.edges, p.symBits
	rowTwo, edgeTerm, numEdges := p.rowTwo, p.edgeTerm, p.numEdges
	for s := 0; s < count; s++ {
		var z int32
		if auxDet >= 0 {
			z = auxDet
		} else {
			z = sampleCum(auxCum, auxLast, rng.U01(src.Lookahead(0)))
		}
		rowOf := p.rowOf[int(z)*k : int(z)*k+k]
		node := p.root
		depth := uint64(0)
		in, bits := 0.0, 0
		for node >= 0 {
			st := node
			sp := speaker[st]
			r := rowOf[sp]
			t := &rowTwo[r]
			x := t.det
			if x < 0 {
				x = t.sample(rng.U01(src.Lookahead(1 + uint64(sp))))
			}
			f := fused[int(st)*2+int(x)]
			e := f.edge
			if node = f.next; node == nodeNone {
				md := &p.pool[p.msgDist[int(p.distBase[st])+int(x)]]
				e = p.transBase[st] + sampleCum(md.cum, md.last, rng.U01(src.Lookahead(1+k64+depth)))
				node = edges[e]
			}
			if edgeTerm != nil {
				in += edgeTerm[int(r)*numEdges+int(e)]
			}
			bits += int(symBits[e])
			depth++
		}
		src.Skip(1 + k64 + depth)

		if edgeTerm == nil {
			in = p.inner[int(z)*p.numLeaves+int(-node-1)]
		}
		sum += in
		sumSq += in * in
		bitsSum += float64(bits)
	}
	return sum, sumSq, bitsSum
}
