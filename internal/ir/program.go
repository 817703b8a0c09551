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

// Program is a compiled protocol: the full control surface of a Spec —
// and, for estimator programs, of a (Spec, Prior) pair — flattened into
// immutable lookup tables. A Program is read-only after compilation and
// safe for concurrent use; per-execution state lives in pooled scratch.
type Program struct {
	k         int
	inputSize int
	numStates int
	numLeaves int
	root      int32 // encoded start node (a leaf when the protocol is empty)

	// Per-interior-state tables.
	speaker   []int32 // who speaks
	alphabet  []int32 // message alphabet size
	width     []int32 // fixed bit width of the alphabet (encoding.FixedWidth)
	distBase  []int32 // msgDist[distBase[s]+input] = pool id of the speaker's dist
	transBase []int32 // edges/symBits[transBase[s]+sym]
	msgDist   []int32
	edges     []int32 // encoded next node per (state, symbol)
	symBits   []int32 // declared MessageBits per (state, symbol)
	// fused[s*inputSize+v] short-circuits a step when the message for
	// input v is deterministic (see fusedCell).
	fused []fusedCell

	pool []poolDist

	// Per-leaf tables. Merged programs (compiled with a StateKeyer) keep
	// only leafOut and leafDepth: the rest depend on the path taken.
	leafBits   []int32
	leafOut    []int32
	leafDepth  []int32 // messages on the complete transcript
	leafSymOff []int32 // numLeaves+1 offsets into leafSyms
	leafSyms   []int32
	leafQ      []float64 // numLeaves × k × inputSize q-factor arena

	fixedWidth    bool // every reachable symbol's MessageBits equals the fixed width
	deterministic bool // every reachable (state, input) message is a point mass
	speakOnce     bool // on no root-to-leaf path does a player speak twice

	// Estimator extension (zero-valued on spec-only programs).
	estimator bool
	auxSize   int
	auxCum    []float64
	auxLast   int32
	auxDet    int32
	rows      []int32  // pool id of each distinct prior conditional row
	rowOf     []uint16 // auxSize × k: row index of player i's conditional given z
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

	keySHA string

	scratch sync.Pool
}

// NumPlayers returns k.
func (p *Program) NumPlayers() int { return p.k }

// InputSize returns the per-player input domain size.
func (p *Program) InputSize() int { return p.inputSize }

// NumStates returns the number of interior transcript states.
func (p *Program) NumStates() int { return p.numStates }

// NumLeaves returns the number of reachable complete transcripts.
func (p *Program) NumLeaves() int { return p.numLeaves }

// Estimator reports whether the program carries the prior-dependent
// tables (aux sampler, per-player conditionals, scoring table).
func (p *Program) Estimator() bool { return p.estimator }

// PerEdge reports whether the estimator program scores per edge (see the
// package comment) rather than from a per-leaf table.
func (p *Program) PerEdge() bool { return p.edgeTerm != nil }

// FixedWidth reports whether every reachable message's declared bit
// charge equals the fixed-width encoding of its alphabet — the condition
// the blackboard executor needs.
func (p *Program) FixedWidth() bool { return p.fixedWidth }

// Deterministic reports whether every reachable (state, input) message
// distribution is a point mass, i.e. the protocol consumes no message
// randomness on any input.
func (p *Program) Deterministic() bool { return p.deterministic }

// KeySHA returns the program's content address: the SHA-256 of its cache
// key, in the same hex form the jobs result cache uses for its own keys.
// Empty for programs compiled outside the cache.
func (p *Program) KeySHA() string { return p.keySHA }

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
// dynamic cicShard performs, bit for bit. Requires an estimator program.
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

// SampleWalk runs the protocol once on the fixed input x, sampling
// message randomness from src, and returns the transcript, fresh copies
// of the leaf's q-factor rows, and the leaf's bit cost and output. The
// caller must have checked len(x) == NumPlayers and every x[i] within
// [0, InputSize); the draw stream is consumed exactly as the dynamic
// core.SampleTranscript consumes it (one uniform per message).
func (p *Program) SampleWalk(x []int, src *rng.Source) (t []int, q [][]float64, bits, output int) {
	node := p.root
	depth := uint64(0)
	for node >= 0 {
		st := node
		md := &p.pool[p.msgDist[int(p.distBase[st])+x[p.speaker[st]]]]
		var sym int32
		if md.det >= 0 {
			sym = md.det
		} else {
			sym = sampleCum(md.cum, md.last, rng.U01(src.Lookahead(depth)))
		}
		t = append(t, int(sym))
		node = p.edges[int(p.transBase[st])+int(sym)]
		depth++
	}
	src.Skip(depth)

	leaf := int(-node - 1)
	q = make([][]float64, p.k)
	qRow := make([]float64, p.k*p.inputSize)
	copy(qRow, p.leafQ[leaf*p.k*p.inputSize:(leaf+1)*p.k*p.inputSize])
	for i := 0; i < p.k; i++ {
		q[i] = qRow[i*p.inputSize : (i+1)*p.inputSize : (i+1)*p.inputSize]
	}
	return t, q, int(p.leafBits[leaf]), int(p.leafOut[leaf])
}

// Leaves returns the program's complete transcripts with their bit costs
// and outputs, for conformance tests that compare compiled tables against
// dynamic enumeration. The returned slices are fresh copies. Merged
// programs have no per-leaf transcripts; Leaves returns nil for them.
func (p *Program) Leaves() (syms [][]int, bits []int, outs []int) {
	if p.leafBits == nil {
		return nil, nil, nil
	}
	syms = make([][]int, p.numLeaves)
	bits = make([]int, p.numLeaves)
	outs = make([]int, p.numLeaves)
	for l := 0; l < p.numLeaves; l++ {
		start, end := p.leafSymOff[l], p.leafSymOff[l+1]
		ts := make([]int, end-start)
		for i := start; i < end; i++ {
			ts[i-start] = int(p.leafSyms[i])
		}
		syms[l] = ts
		bits[l] = int(p.leafBits[l])
		outs[l] = int(p.leafOut[l])
	}
	return syms, bits, outs
}
