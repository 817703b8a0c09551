package twoparty

import (
	"fmt"
	"math/bits"
	"testing"
)

func TestFunctionConstructors(t *testing.T) {
	if _, err := Disjointness(0); err == nil {
		t.Fatal("DISJ_0 succeeded")
	}
	if _, err := Disjointness(13); err == nil {
		t.Fatal("DISJ_13 succeeded")
	}
	if _, err := Equality(0); err == nil {
		t.Fatal("EQ_0 succeeded")
	}
	if _, err := InnerProduct(13); err == nil {
		t.Fatal("IP_13 succeeded")
	}

	disj, err := Disjointness(3)
	if err != nil {
		t.Fatal(err)
	}
	if disj.Eval(0b101, 0b010) != 1 {
		t.Fatal("disjoint sets not recognized")
	}
	if disj.Eval(0b101, 0b100) != 0 {
		t.Fatal("intersecting sets not recognized")
	}

	eq, _ := Equality(3)
	if eq.Eval(5, 5) != 1 || eq.Eval(5, 6) != 0 {
		t.Fatal("equality misevaluates")
	}

	ip, _ := InnerProduct(3)
	if ip.Eval(0b011, 0b011) != 0 { // two shared bits → parity 0
		t.Fatal("IP misevaluates 011·011")
	}
	if ip.Eval(0b001, 0b001) != 1 {
		t.Fatal("IP misevaluates 001·001")
	}
}

func TestDisjointnessFoolingSet(t *testing.T) {
	// The classical Ω(n) bound: the set {(S, S̄)} is fooling for DISJ_n.
	for n := 1; n <= 8; n++ {
		f, err := Disjointness(n)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := DisjointnessFoolingSet(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs.Pairs) != 1<<uint(n) {
			t.Fatalf("n=%d: fooling set size %d, want %d", n, len(fs.Pairs), 1<<uint(n))
		}
		if err := fs.Verify(f); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if lb := fs.LowerBound(); lb != n {
			t.Fatalf("n=%d: certified bound %d, want %d", n, lb, n)
		}
	}
}

func TestEqualityFoolingSet(t *testing.T) {
	for n := 1; n <= 6; n++ {
		f, _ := Equality(n)
		fs, err := EqualityFoolingSet(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Verify(f); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if fs.LowerBound() != n {
			t.Fatalf("n=%d: bound %d", n, fs.LowerBound())
		}
	}
}

func TestFoolingSetVerifierCatchesBadSets(t *testing.T) {
	f, _ := Disjointness(2)
	// Non-monochromatic pair.
	bad := &FoolingSet{Value: 1, Pairs: [][2]int{{0b01, 0b01}}}
	if err := bad.Verify(f); err == nil {
		t.Fatal("intersecting pair accepted as value-1")
	}
	// Two pairs that do not fool each other: (∅, ∅) and (∅, {0}) — both
	// crossings stay disjoint.
	notFooling := &FoolingSet{Value: 1, Pairs: [][2]int{{0, 0}, {0, 1}}}
	if err := notFooling.Verify(f); err == nil {
		t.Fatal("non-fooling set accepted")
	}
	if err := (&FoolingSet{}).Verify(nil); err == nil {
		t.Fatal("nil function accepted")
	}
}

func TestFoolingSetLowerBoundEdge(t *testing.T) {
	if (&FoolingSet{}).LowerBound() != 0 {
		t.Fatal("empty fooling set bound nonzero")
	}
	one := &FoolingSet{Pairs: [][2]int{{0, 0}}}
	if one.LowerBound() != 0 {
		t.Fatal("singleton fooling set bound nonzero")
	}
	three := &FoolingSet{Pairs: [][2]int{{0, 0}, {1, 1}, {2, 2}}}
	if three.LowerBound() != 2 {
		t.Fatalf("size-3 bound %d, want 2", three.LowerBound())
	}
}

func TestTrivialProtocolCorrectAndTight(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for _, mk := range []func(int) (*Func, error){Disjointness, Equality, InnerProduct} {
			f, err := mk(n)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := TrivialProtocol(f)
			if err != nil {
				t.Fatal(err)
			}
			ok, worst, err := tree.Correct(f)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s: trivial protocol incorrect", f.Name)
			}
			if worst != n+1 {
				t.Fatalf("%s: worst cost %d, want %d", f.Name, worst, n+1)
			}
		}
	}
}

func TestTrivialProtocolMeetsFoolingBound(t *testing.T) {
	// CC(DISJ_n) is pinned between the fooling bound n and the trivial
	// protocol's n+1: the classical Θ(n).
	const n = 6
	f, _ := Disjointness(n)
	fs, _ := DisjointnessFoolingSet(n)
	if err := fs.Verify(f); err != nil {
		t.Fatal(err)
	}
	tree, _ := TrivialProtocol(f)
	_, worst, err := tree.Correct(f)
	if err != nil {
		t.Fatal(err)
	}
	if fs.LowerBound() > worst {
		t.Fatalf("fooling bound %d above achievable cost %d", fs.LowerBound(), worst)
	}
	if worst-fs.LowerBound() > 1 {
		t.Fatalf("gap between bound %d and protocol %d exceeds one bit", fs.LowerBound(), worst)
	}
}

func TestRectangleLemma(t *testing.T) {
	// The leaves of a correct deterministic protocol partition the input
	// square into monochromatic rectangles.
	for _, mk := range []func(int) (*Func, error){Disjointness, Equality, InnerProduct} {
		f, err := mk(4)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := TrivialProtocol(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.VerifyRectangleLemma(f); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
}

func TestLeafRectangleCountAtLeastFoolingSize(t *testing.T) {
	// Executable form of the counting argument: a correct protocol needs
	// at least |fooling set| distinct value-1 rectangles.
	const n = 4
	f, _ := Disjointness(n)
	fs, _ := DisjointnessFoolingSet(n)
	tree, _ := TrivialProtocol(f)
	rects, err := tree.LeafRectangles()
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, r := range rects {
		if r.Leaf == 1 && len(r.A) > 0 && len(r.B) > 0 {
			ones++
		}
	}
	if ones < len(fs.Pairs) {
		t.Fatalf("%d value-1 rectangles, fooling set needs >= %d", ones, len(fs.Pairs))
	}
}

func TestTreeRunErrors(t *testing.T) {
	bad := &Tree{N: 2, Root: nil}
	if _, _, err := bad.Run(0, 0); err == nil {
		t.Fatal("nil root accepted")
	}
	noSend := &Tree{N: 2, Root: &Node{Leaf: -1, Speaker: 0}}
	if _, _, err := noSend.Run(0, 0); err == nil {
		t.Fatal("internal node without message function accepted")
	}
	nonBinary := &Tree{N: 2, Root: &Node{
		Leaf:    -1,
		Speaker: 0,
		Send:    func(int) int { return 2 },
		Child:   [2]*Node{{Leaf: 0}, {Leaf: 1}},
	}}
	if _, _, err := nonBinary.Run(0, 0); err == nil {
		t.Fatal("non-binary message accepted")
	}
	if _, err := TrivialProtocol(nil); err == nil {
		t.Fatal("nil function accepted")
	}
	if _, err := noSend.LeafRectangles(); err == nil {
		t.Fatal("LeafRectangles on malformed tree succeeded")
	}
}

func TestIncorrectProtocolFailsRectangleLemmaCheck(t *testing.T) {
	f, _ := Disjointness(2)
	alwaysOne := &Tree{N: 2, Root: &Node{Leaf: 1}}
	if err := alwaysOne.VerifyRectangleLemma(f); err == nil {
		t.Fatal("constant protocol passed the correctness gate")
	}
}

// Equality returns EQ_n: f(x, y) = 1 iff x = y. Its canonical fooling set
// is the diagonal, of size 2^n.
func Equality(n int) (*Func, error) {
	if n < 1 || n > maxN {
		return nil, fmt.Errorf("twoparty: n=%d outside [1,%d]", n, maxN)
	}
	return &Func{
		N:    n,
		Name: fmt.Sprintf("EQ_%d", n),
		Eval: func(x, y int) int {
			if x == y {
				return 1
			}
			return 0
		},
	}, nil
}

// InnerProduct returns IP_n: f(x, y) = ⟨x, y⟩ mod 2.
func InnerProduct(n int) (*Func, error) {
	if n < 1 || n > maxN {
		return nil, fmt.Errorf("twoparty: n=%d outside [1,%d]", n, maxN)
	}
	return &Func{
		N:    n,
		Name: fmt.Sprintf("IP_%d", n),
		Eval: func(x, y int) int { return bits.OnesCount(uint(x&y)) % 2 },
	}, nil
}

// EqualityFoolingSet returns the diagonal fooling set for EQ_n.
func EqualityFoolingSet(n int) (*FoolingSet, error) {
	if n < 1 || n > maxN {
		return nil, fmt.Errorf("twoparty: n=%d outside [1,%d]", n, maxN)
	}
	fs := &FoolingSet{Value: 1}
	for s := 0; s < 1<<uint(n); s++ {
		fs.Pairs = append(fs.Pairs, [2]int{s, s})
	}
	return fs, nil
}

// LeafRectangles computes, for each leaf, the rectangle of inputs reaching
// it — the executable form of the fundamental lemma. It also verifies that
// the rectangles partition the full input square.
func (t *Tree) LeafRectangles() ([]Rectangle, error) {
	size := 1 << uint(t.N)
	var rects []Rectangle
	var walk func(node *Node, aSet, bSet []int) error
	walk = func(node *Node, aSet, bSet []int) error {
		if node == nil {
			return fmt.Errorf("twoparty: nil node")
		}
		if node.Leaf >= 0 {
			rects = append(rects, Rectangle{A: aSet, B: bSet, Leaf: node.Leaf})
			return nil
		}
		if node.Send == nil {
			return fmt.Errorf("twoparty: internal node without a message function")
		}
		var part [2][]int
		src := aSet
		if node.Speaker == 1 {
			src = bSet
		}
		for _, v := range src {
			b := node.Send(v)
			if b != 0 && b != 1 {
				return fmt.Errorf("twoparty: non-binary message %d", b)
			}
			part[b] = append(part[b], v)
		}
		for b := 0; b < 2; b++ {
			if len(part[b]) == 0 {
				continue
			}
			if node.Speaker == 0 {
				if err := walk(node.Child[b], part[b], bSet); err != nil {
					return err
				}
			} else {
				if err := walk(node.Child[b], aSet, part[b]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	all := make([]int, size)
	for i := range all {
		all[i] = i
	}
	if err := walk(t.Root, all, all); err != nil {
		return nil, err
	}
	// Partition check: every pair covered exactly once.
	seen := make([]int, size*size)
	for _, r := range rects {
		for _, x := range r.A {
			for _, y := range r.B {
				seen[x*size+y]++
			}
		}
	}
	for idx, c := range seen {
		if c != 1 {
			return nil, fmt.Errorf("twoparty: input pair (%d,%d) covered %d times", idx/size, idx%size, c)
		}
	}
	return rects, nil
}

// VerifyRectangleLemma checks that every leaf rectangle of a protocol that
// correctly computes f is monochromatic — the combinatorial heart of all
// deterministic lower bounds.
func (t *Tree) VerifyRectangleLemma(f *Func) error {
	ok, _, err := t.Correct(f)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("twoparty: protocol does not compute %s", f.Name)
	}
	rects, err := t.LeafRectangles()
	if err != nil {
		return err
	}
	for ri, r := range rects {
		for _, x := range r.A {
			for _, y := range r.B {
				if f.Eval(x, y) != r.Leaf {
					return fmt.Errorf("twoparty: rectangle %d not monochromatic at (%d,%d)", ri, x, y)
				}
			}
		}
	}
	return nil
}

// Rectangle is a combinatorial rectangle A × B of input pairs.
type Rectangle struct {
	A, B []int
	Leaf int // the protocol output on this rectangle
}
