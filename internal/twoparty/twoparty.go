// Package twoparty implements the classical two-party communication
// complexity substrate the paper builds on (Section 1 cites the Ω(n)
// two-player set-disjointness bounds of Kalyanasundaram–Schnitger and
// Razborov; Section 3's broadcast model specializes to it at k = 2).
//
// The package makes the textbook machinery executable for small universes:
//
//   - communication matrices M_f(x, y) = f(x, y);
//   - deterministic protocol trees, evaluated with exact bit counts;
//   - fooling sets, with an exhaustive verifier, and the explicit size-2^n
//     fooling set {(S, S̄)} for DISJ_n that yields CC(DISJ_n) ≥ n.
//
// Everything here is exact and exhaustive; universes are capped at
// n ≤ 12 (matrices of size 2^n × 2^n). The tests check the protocol trees
// against the rectangle lemma ("the inputs reaching any node of a
// deterministic protocol form a combinatorial rectangle").
package twoparty

import (
	"fmt"
	"math/bits"
)

// maxN caps the universe so matrices stay enumerable.
const maxN = 12

// Func is a two-party Boolean function on n-bit inputs.
type Func struct {
	N    int
	Name string
	Eval func(x, y int) int
}

// Disjointness returns DISJ_n: f(x, y) = 1 iff the sets x, y ⊆ [n]
// (bitmask-encoded) are disjoint.
func Disjointness(n int) (*Func, error) {
	if n < 1 || n > maxN {
		return nil, fmt.Errorf("twoparty: n=%d outside [1,%d]", n, maxN)
	}
	return &Func{
		N:    n,
		Name: fmt.Sprintf("DISJ_%d", n),
		Eval: func(x, y int) int {
			if x&y == 0 {
				return 1
			}
			return 0
		},
	}, nil
}

// FoolingSet is a set of input pairs claimed to be fooling for a function:
// all pairs evaluate to Value, and for any two pairs (x1,y1), (x2,y2) at
// least one crossed pair (x1,y2) or (x2,y1) evaluates differently.
type FoolingSet struct {
	Value int
	Pairs [][2]int
}

// Verify checks the fooling property exhaustively. A valid fooling set of
// size s certifies CC(f) ≥ ⌈log₂ s⌉ (every pair needs its own
// monochromatic rectangle).
func (fs *FoolingSet) Verify(f *Func) error {
	if f == nil {
		return fmt.Errorf("twoparty: nil function")
	}
	for i, p := range fs.Pairs {
		if got := f.Eval(p[0], p[1]); got != fs.Value {
			return fmt.Errorf("twoparty: pair %d evaluates to %d, want %d", i, got, fs.Value)
		}
	}
	for i := 0; i < len(fs.Pairs); i++ {
		for j := i + 1; j < len(fs.Pairs); j++ {
			a, b := fs.Pairs[i], fs.Pairs[j]
			if f.Eval(a[0], b[1]) == fs.Value && f.Eval(b[0], a[1]) == fs.Value {
				return fmt.Errorf("twoparty: pairs %d and %d do not fool (both crossings monochromatic)", i, j)
			}
		}
	}
	return nil
}

// LowerBound returns the communication lower bound ⌈log₂ |S|⌉ certified by
// the fooling set.
func (fs *FoolingSet) LowerBound() int {
	size := len(fs.Pairs)
	if size <= 1 {
		return 0
	}
	return bits.Len(uint(size - 1))
}

// DisjointnessFoolingSet returns the classical size-2^n fooling set for
// DISJ_n: the pairs (S, S̄) for every S ⊆ [n]. Each such pair is disjoint;
// crossing two distinct pairs always intersects on one side.
func DisjointnessFoolingSet(n int) (*FoolingSet, error) {
	if n < 1 || n > maxN {
		return nil, fmt.Errorf("twoparty: n=%d outside [1,%d]", n, maxN)
	}
	full := 1<<uint(n) - 1
	fs := &FoolingSet{Value: 1}
	for s := 0; s <= full; s++ {
		fs.Pairs = append(fs.Pairs, [2]int{s, full &^ s})
	}
	return fs, nil
}

// Node is one node of a deterministic two-party protocol tree. Exactly one
// of the following holds: Leaf >= 0 (the node outputs Leaf), or Speaker is
// 0 (Alice) or 1 (Bob) and the children are taken according to the bit the
// speaker sends, which is Send evaluated on the speaker's input.
type Node struct {
	Leaf    int // output value, or -1 for internal nodes
	Speaker int // 0 = Alice, 1 = Bob (internal nodes only)
	Send    func(input int) int
	Child   [2]*Node
}

// Tree is a deterministic two-party protocol.
type Tree struct {
	N    int
	Root *Node
}

// Run evaluates the protocol on (x, y), returning the output and the
// number of bits exchanged.
func (t *Tree) Run(x, y int) (output, cost int, err error) {
	node := t.Root
	for depth := 0; ; depth++ {
		if node == nil {
			return 0, 0, fmt.Errorf("twoparty: nil node at depth %d", depth)
		}
		if depth > 64 {
			return 0, 0, fmt.Errorf("twoparty: protocol deeper than 64")
		}
		if node.Leaf >= 0 {
			return node.Leaf, cost, nil
		}
		if node.Send == nil {
			return 0, 0, fmt.Errorf("twoparty: internal node without a message function")
		}
		input := x
		if node.Speaker == 1 {
			input = y
		}
		b := node.Send(input)
		if b != 0 && b != 1 {
			return 0, 0, fmt.Errorf("twoparty: non-binary message %d", b)
		}
		cost++
		node = node.Child[b]
	}
}

// Correct reports whether the protocol computes f on every input pair, and
// the worst-case cost observed.
func (t *Tree) Correct(f *Func) (bool, int, error) {
	size := 1 << uint(t.N)
	worst := 0
	for x := 0; x < size; x++ {
		for y := 0; y < size; y++ {
			out, cost, err := t.Run(x, y)
			if err != nil {
				return false, 0, err
			}
			if cost > worst {
				worst = cost
			}
			if out != f.Eval(x, y) {
				return false, worst, nil
			}
		}
	}
	return true, worst, nil
}

// TrivialProtocol is the n+1-bit protocol: Alice sends her input bit by
// bit, then Bob announces f(x, y). Its cost matches the fooling-set lower
// bound for DISJ_n up to the single answer bit.
func TrivialProtocol(f *Func) (*Tree, error) {
	if f == nil {
		return nil, fmt.Errorf("twoparty: nil function")
	}
	// Build the tree bottom-up: after Alice's n bits, the reached node
	// knows x exactly; Bob answers with f(x, ·).
	var build func(depth, xPrefix int) *Node
	build = func(depth, xPrefix int) *Node {
		if depth == f.N {
			x := xPrefix
			answer := &Node{
				Leaf:    -1,
				Speaker: 1,
				Send:    func(y int) int { return f.Eval(x, y) },
				Child: [2]*Node{
					{Leaf: 0},
					{Leaf: 1},
				},
			}
			return answer
		}
		d := depth
		return &Node{
			Leaf:    -1,
			Speaker: 0,
			Send:    func(x int) int { return x >> uint(d) & 1 },
			Child: [2]*Node{
				build(depth+1, xPrefix),
				build(depth+1, xPrefix|1<<uint(d)),
			},
		}
	}
	return &Tree{N: f.N, Root: build(0, 0)}, nil
}
