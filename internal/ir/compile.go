package ir

import (
	"bytes"
	"encoding/binary"
	"math"

	"broadcastic/internal/info"
	"broadcastic/internal/prob"
)

// CompileEstimator flattens spec under prior into a Program: the states
// and transitions of the transcript tree, the auxiliary sampler, the
// per-(z, player) conditional row index, and the scoring table — per-edge
// divergence terms when the program qualifies (see the package comment),
// otherwise the per-leaf table inner[z][leaf] = Σ_i D(posterior_i ‖
// prior_i). Both are built through the same info.QDivergenceSum the
// dynamic estimator calls, on the same q-factor and prior rows.
//
// It returns nil when the pair is outside the eligibility gates or errors
// while being walked. nil always means "use the dynamic path" — the
// dynamic engine surfaces the identical error or handles the identical
// big instance, so callers never lose behavior.
//
// A spec implementing StateKeyer first compiles with equivalent prefixes
// merged. Merging is sound only under per-edge scoring (a merged leaf has
// no single q-factor row), so when that program does not qualify the
// spec compiles again as a plain tree.
func CompileEstimator(spec Spec, prior Prior) *Program {
	if spec.NumPlayers() != prior.NumPlayers() || spec.InputSize() != prior.InputSize() {
		return nil
	}
	if sk, ok := spec.(StateKeyer); ok {
		if c := newCompiler(spec); c != nil {
			c.keyer, c.merged = sk, make(map[mergeKey]int32)
			if p := c.compileEstimator(prior); p != nil {
				return p
			}
		}
	}
	c := newCompiler(spec)
	if c == nil {
		return nil
	}
	return c.compileEstimator(prior)
}

func (c *compiler) compileEstimator(prior Prior) *Program {
	root, ok := c.walk(nil)
	if !ok {
		return nil
	}
	p := c.finish(root)
	if p == nil || !c.extendEstimator(p, prior) {
		return nil
	}
	return p
}

// compiler accumulates the flat tables during the transcript-tree walk.
// The walk mirrors core.EnumerateTranscripts exactly — same q-factor
// multiply order, same reachability pruning — so the compiled leaf set
// and its float annotations match dynamic enumeration bit for bit.
//
// The leaf q-factors live only here: buildInner reads them while the
// program compiles, and the Program keeps none of them.
//
// With a keyer the walk merges prefixes of equal (depth, StateKey) into
// one node, visiting each merged subtree once. Path-dependent leaf
// q-factors are then not recorded, and the walk aborts at the first edge
// that does not lead to a higher-numbered speaker: only such monotone
// programs score per edge, and only per-edge scoring can use merged
// states.
type compiler struct {
	spec      Spec
	k         int
	inputSize int

	speaker   []int32
	alphabet  []int32
	distBase  []int32
	transBase []int32
	msgDist   []int32
	edges     []int32
	symBits   []int32
	fused     []fusedCell
	numLeaves int
	leafQ     []float64 // numLeaves × k × inputSize, plain trees only

	pool    []poolDist
	poolIdx map[string]int32
	// intern's reusable key buffers, and the previous call's key and id:
	// prior rows arrive in long runs of one distribution.
	key, lastKey []byte
	lastID       int32

	q    [][]float64
	seen []bool // players who spoke on the current root-to-state path

	keyer  StateKeyer         // nil: compile the plain tree
	merged map[mergeKey]int32 // encoded node per merged prefix class

	speakOnce bool
	monotone  bool // every edge leads to a leaf or a higher-numbered speaker
}

// mergeKey names a class of merged prefixes: equal length, equal key.
type mergeKey struct {
	depth int
	key   uint64
}

func newCompiler(spec Spec) *compiler {
	k, inputSize := spec.NumPlayers(), spec.InputSize()
	if k < 1 || inputSize < 1 || inputSize > maxInputSize {
		return nil
	}
	c := &compiler{
		spec:      spec,
		k:         k,
		inputSize: inputSize,
		poolIdx:   make(map[string]int32, 16),
		q:         make([][]float64, k),
		seen:      make([]bool, k),
		speakOnce: true,
		monotone:  true,
	}
	for i := range c.q {
		c.q[i] = make([]float64, inputSize)
		for v := range c.q[i] {
			c.q[i][v] = 1
		}
	}
	return c
}

// intern deduplicates a distribution into the pool, keyed by the exact
// float64 bit patterns of its probability vector. A hit allocates nothing,
// and a repeat of the previous call skips the map, which keeps the
// auxSize × k prior-row pass cheap.
func (c *compiler) intern(d prob.Dist) int32 {
	c.key = c.key[:0]
	for i := 0; i < d.Size(); i++ {
		c.key = binary.LittleEndian.AppendUint64(c.key, math.Float64bits(d.P(i)))
	}
	if bytes.Equal(c.key, c.lastKey) {
		return c.lastID
	}
	c.key, c.lastKey = c.lastKey, c.key
	if id, ok := c.poolIdx[string(c.lastKey)]; ok {
		c.lastID = id
		return id
	}
	p := d.Probs()
	cum := make([]float64, len(p))
	acc := 0.0
	last := int32(len(p) - 1)
	positive := 0
	det := int32(-1)
	for i, v := range p {
		acc += v
		cum[i] = acc
		if v > 0 {
			last = int32(i)
			positive++
			det = int32(i)
		}
	}
	if positive != 1 {
		det = -1
	}
	id := int32(len(c.pool))
	c.pool = append(c.pool, poolDist{cum: cum, last: last, det: det, dist: d})
	c.poolIdx[string(c.lastKey)] = id
	c.lastID = id
	return id
}

// walk compiles the subtree rooted at transcript t and returns its encoded
// node. ok=false aborts the whole compilation (gate exceeded or spec
// error).
func (c *compiler) walk(t []int) (node int32, ok bool) {
	if len(t) > maxDepth {
		return 0, false
	}
	speaker, done, err := c.spec.NextSpeaker(t)
	if err != nil {
		return 0, false
	}
	if done {
		return c.emitLeaf(t)
	}
	if speaker < 0 || speaker >= c.k {
		return 0, false
	}
	alphabet, err := c.spec.MessageAlphabet(t)
	if err != nil || alphabet < 1 {
		return 0, false
	}
	if len(c.speaker) >= maxStates ||
		(len(c.speaker)+1)*c.inputSize > maxDistCells ||
		len(c.edges)+alphabet > maxEdges {
		return 0, false
	}

	// Per-input message distributions of the speaker at this state.
	distRow := make([]int32, c.inputSize)
	dists := make([][]float64, c.inputSize)
	for v := 0; v < c.inputSize; v++ {
		d, err := c.spec.MessageDist(t, speaker, v)
		if err != nil || d.Size() != alphabet {
			return 0, false
		}
		id := c.intern(d)
		distRow[v] = id
		dists[v] = c.pool[id].dist.Probs()
	}

	state := int32(len(c.speaker))
	c.speaker = append(c.speaker, int32(speaker))
	c.alphabet = append(c.alphabet, int32(alphabet))
	c.distBase = append(c.distBase, int32(len(c.msgDist)))
	c.msgDist = append(c.msgDist, distRow...)
	transBase := int32(len(c.edges))
	c.transBase = append(c.transBase, transBase)
	for sym := 0; sym < alphabet; sym++ {
		c.edges = append(c.edges, nodeNone)
		c.symBits = append(c.symBits, 0)
	}
	// Reserve this state's fused row now: states are numbered in preorder,
	// so the row must sit at state*inputSize before recursion allocates
	// child states. The cells are filled after the children exist.
	for v := 0; v < c.inputSize; v++ {
		c.fused = append(c.fused, fusedCell{next: nodeNone})
	}

	if c.seen[speaker] {
		c.speakOnce = false
	}
	savedSeen := c.seen[speaker]
	c.seen[speaker] = true

	saved := make([]float64, c.inputSize)
	copy(saved, c.q[speaker])
	for sym := 0; sym < alphabet; sym++ {
		// Update the speaker's q-row; prune symbols no input can emit
		// along this prefix (the same rule dynamic enumeration applies).
		reachable := false
		for v := 0; v < c.inputSize; v++ {
			c.q[speaker][v] = saved[v] * dists[v][sym]
			if c.q[speaker][v] > 0 {
				reachable = true
			}
		}
		if !reachable {
			continue
		}
		sb, err := c.spec.MessageBits(t, sym)
		if err != nil || sb < 0 {
			return 0, false
		}
		child, ok := c.child(append(t, sym))
		if !ok {
			return 0, false
		}
		if child >= 0 && c.speaker[child] <= int32(speaker) {
			c.monotone = false
			if c.keyer != nil {
				return 0, false
			}
		}
		c.edges[int(transBase)+sym] = child
		c.symBits[int(transBase)+sym] = int32(sb)
	}
	copy(c.q[speaker], saved)
	c.seen[speaker] = savedSeen

	// Fused transitions: when input v's message is a point mass, one
	// table load replaces the whole sample step.
	for v := 0; v < c.inputSize; v++ {
		if det := c.pool[distRow[v]].det; det >= 0 {
			e := transBase + det
			c.fused[int(state)*c.inputSize+v] = fusedCell{next: c.edges[e], edge: e}
		}
	}
	return state, true
}

// child compiles the node for prefix t: the plain subtree walk, or, when
// merging, the node already compiled for t's (depth, key) class.
func (c *compiler) child(t []int) (int32, bool) {
	if c.keyer == nil {
		return c.walk(t)
	}
	mk := mergeKey{depth: len(t), key: c.keyer.StateKey(t)}
	if node, ok := c.merged[mk]; ok {
		return node, true
	}
	node, ok := c.walk(t)
	if ok {
		c.merged[mk] = node
	}
	return node, ok
}

// emitLeaf numbers the leaf at complete transcript t. The output is
// evaluated only so that a spec whose Output errors compiles to nil, as
// the dynamic engines surface that error; no leaf output is kept.
func (c *compiler) emitLeaf(t []int) (int32, bool) {
	leaf := c.numLeaves
	if c.keyer == nil && (leaf+1)*c.k*c.inputSize > maxLeafQCells {
		return 0, false
	}
	if _, err := c.spec.Output(t); err != nil {
		return 0, false
	}
	c.numLeaves++
	if c.keyer == nil {
		for i := 0; i < c.k; i++ {
			c.leafQ = append(c.leafQ, c.q[i]...)
		}
	}
	return int32(-(leaf + 1)), true
}

func (c *compiler) finish(root int32) *Program {
	if c.numLeaves == 0 {
		return nil
	}
	return &Program{
		k:         c.k,
		inputSize: c.inputSize,
		numStates: len(c.speaker),
		numLeaves: c.numLeaves,
		root:      root,
		speaker:   c.speaker,
		alphabet:  c.alphabet,
		distBase:  c.distBase,
		transBase: c.transBase,
		msgDist:   c.msgDist,
		edges:     c.edges,
		symBits:   c.symBits,
		fused:     c.fused,
		pool:      c.pool,
		speakOnce: c.speakOnce,
	}
}

// extendEstimator adds the prior-dependent tables to a freshly compiled
// program. The aux sampler replicates core's auxDist (prob.Normalize over
// AuxProb weights); the scoring table is built by info.QDivergenceSum on
// the exact q-factor and prior-probability rows the dynamic estimator
// would hand it, so the values are shared-code identical. It fails on a
// merged program that does not qualify for per-edge scoring.
func (c *compiler) extendEstimator(p *Program, prior Prior) bool {
	auxSize := prior.AuxSize()
	if auxSize < 1 || auxSize > maxRowCells/p.k {
		return false
	}
	w := make([]float64, auxSize)
	for z := range w {
		w[z] = prior.AuxProb(z)
	}
	zd, err := prob.Normalize(w)
	if err != nil {
		return false
	}
	zp := zd.Probs()
	p.auxCum = make([]float64, auxSize)
	acc := 0.0
	p.auxLast = int32(auxSize - 1)
	positive := 0
	p.auxDet = -1
	for z, v := range zp {
		acc += v
		p.auxCum[z] = acc
		if v > 0 {
			p.auxLast = int32(z)
			positive++
			p.auxDet = int32(z)
		}
	}
	if positive != 1 {
		p.auxDet = -1
	}

	// Row index: the distinct conditionals, and per (z, player) which one
	// applies. rowOfPool maps a pool id to its row index + 1.
	p.rowOf = make([]uint16, auxSize*p.k)
	var rowOfPool []int32
	for z := 0; z < auxSize; z++ {
		for i := 0; i < p.k; i++ {
			d, err := prior.PlayerDist(z, i)
			if err != nil || d.Size() > p.inputSize {
				return false
			}
			id := c.intern(d)
			for int(id) >= len(rowOfPool) {
				rowOfPool = append(rowOfPool, 0)
			}
			if rowOfPool[id] == 0 {
				if len(p.rows) == maxRows {
					return false
				}
				p.rows = append(p.rows, id)
				rowOfPool[id] = int32(len(p.rows))
			}
			p.rowOf[z*p.k+i] = uint16(rowOfPool[id] - 1)
		}
	}
	p.pool = c.pool // intern may have grown the pool
	priors := make([][]float64, len(p.rows))
	for r, id := range p.rows {
		priors[r] = p.pool[id].dist.Probs()
	}

	// Binary-input conditionals flatten to two-compare threshold rows,
	// unlocking the pool-free shard loop (see Program.shardBinary).
	if p.inputSize == 2 {
		p.rowTwo = make([]twoPoint, len(p.rows))
		for r, id := range p.rows {
			p.rowTwo[r] = newTwoPoint(&p.pool[id])
		}
	}

	perEdge := c.monotone && silentRowsScoreZero(priors, p.inputSize) &&
		len(p.rows)*len(p.edges) <= maxEdgeTerms
	switch {
	case perEdge:
		return p.buildEdgeTerms(priors)
	case c.keyer != nil:
		return false
	default:
		return p.buildInner(priors, auxSize, c.leafQ)
	}
}

// silentRowsScoreZero reports whether every prior row contributes exactly
// +0.0 to the divergence sum for a player who never spoke (q-row all
// ones). Row mass summing to exactly 1.0 makes it so; without it per-edge
// scoring could not skip silent players.
func silentRowsScoreZero(priors [][]float64, inputSize int) bool {
	ones := make([]float64, inputSize)
	for v := range ones {
		ones[v] = 1
	}
	for _, pr := range priors {
		d, err := info.QDivergenceSum([][]float64{ones}, [][]float64{pr})
		if err != nil || math.Float64bits(d) != 0 {
			return false
		}
	}
	return true
}

// buildEdgeTerms fills the per-edge scoring table: for each prior row r
// and reachable edge e, the divergence term of a speaker with row r who
// sent e's symbol from e's state. The speaker has not spoken before, so
// its q-row is 1·P(sym | v) — exactly the row the per-leaf sum sees.
func (p *Program) buildEdgeTerms(priors [][]float64) bool {
	numEdges := len(p.edges)
	p.edgeTerm = make([]float64, len(priors)*numEdges)
	q := make([]float64, p.inputSize)
	for s := 0; s < p.numStates; s++ {
		base := int(p.transBase[s])
		for sym := 0; sym < int(p.alphabet[s]); sym++ {
			if p.edges[base+sym] == nodeNone {
				continue
			}
			for v := range q {
				q[v] = 1 * p.pool[p.msgDist[int(p.distBase[s])+v]].dist.P(sym)
			}
			for r, pr := range priors {
				d, err := info.QDivergenceSum([][]float64{q}, [][]float64{pr})
				if err != nil {
					return false
				}
				p.edgeTerm[r*numEdges+base+sym] = d
			}
		}
	}
	p.numEdges = numEdges
	return true
}

// buildInner fills the per-leaf scoring table: for each (z, leaf), the
// exact divergence sum the dynamic sample computes after landing on that
// leaf under that z. leafQ is the compiler's leaf q-factor arena.
func (p *Program) buildInner(priors [][]float64, auxSize int, leafQ []float64) bool {
	if auxSize*p.k > maxAuxCells || auxSize*p.numLeaves > maxAuxCells {
		return false
	}
	p.inner = make([]float64, auxSize*p.numLeaves)
	pz := make([][]float64, p.k)
	q := make([][]float64, p.k)
	rowSize := p.k * p.inputSize
	for z := 0; z < auxSize; z++ {
		for i := 0; i < p.k; i++ {
			pz[i] = priors[p.rowOf[z*p.k+i]]
		}
		for l := 0; l < p.numLeaves; l++ {
			for i := 0; i < p.k; i++ {
				q[i] = leafQ[l*rowSize+i*p.inputSize : l*rowSize+(i+1)*p.inputSize]
			}
			in, err := info.QDivergenceSum(q, pz)
			if err != nil {
				return false
			}
			p.inner[z*p.numLeaves+l] = in
		}
	}
	return true
}
