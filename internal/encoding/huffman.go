package encoding

import (
	"container/heap"
	"fmt"
	"sort"

	"broadcastic/internal/prob"
)

// Huffman coding. The introduction contrasts interactive compression with
// Huffman's classical single-shot result (a one-way message X can be sent in
// H(X)+1 expected bits). We implement canonical Huffman codes both as a
// baseline in the compression experiments and as a reference point that the
// multi-party gap result (Section 6) is measured against.

// HuffmanCode is a prefix-free binary code for the outcomes 0..n-1.
type HuffmanCode struct {
	lengths []int    // code length per outcome (0 for zero-probability outcomes)
	codes   []uint64 // canonical codeword per outcome, MSB-aligned to length
}

type huffNode struct {
	weight float64
	order  int // tie-break for determinism
	symbol int // leaf symbol, or -1
	left   *huffNode
	right  *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].order < h[j].order
}
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewHuffman builds a canonical Huffman code for the distribution d.
// Zero-probability outcomes receive no codeword.
func NewHuffman(d prob.Dist) (*HuffmanCode, error) {
	support := d.Support()
	if len(support) == 0 {
		return nil, fmt.Errorf("encoding: empty support")
	}
	lengths := make([]int, d.Size())
	if len(support) == 1 {
		// A single symbol needs one bit so that the code is decodable as a
		// stream (matches the H(X)+1 single-shot bound, not H(X)=0).
		lengths[support[0]] = 1
		return canonicalize(lengths)
	}

	h := &huffHeap{}
	heap.Init(h)
	order := 0
	for _, s := range support {
		heap.Push(h, &huffNode{weight: d.P(s), order: order, symbol: s})
		order++
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*huffNode)
		b := heap.Pop(h).(*huffNode)
		heap.Push(h, &huffNode{
			weight: a.weight + b.weight,
			order:  order,
			symbol: -1,
			left:   a,
			right:  b,
		})
		order++
	}
	root := heap.Pop(h).(*huffNode)
	assignDepths(root, 0, lengths)
	return canonicalize(lengths)
}

func assignDepths(n *huffNode, depth int, lengths []int) {
	if n.symbol >= 0 {
		lengths[n.symbol] = depth
		return
	}
	assignDepths(n.left, depth+1, lengths)
	assignDepths(n.right, depth+1, lengths)
}

// canonicalize converts code lengths into canonical codewords (shorter
// codes first; ties broken by symbol index).
func canonicalize(lengths []int) (*HuffmanCode, error) {
	type sym struct{ s, l int }
	syms := make([]sym, 0, len(lengths))
	for s, l := range lengths {
		if l > 0 {
			syms = append(syms, sym{s, l})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].l != syms[j].l {
			return syms[i].l < syms[j].l
		}
		return syms[i].s < syms[j].s
	})
	codes := make([]uint64, len(lengths))
	var code uint64
	prevLen := 0
	for _, sm := range syms {
		code <<= uint(sm.l - prevLen)
		codes[sm.s] = code
		code++
		prevLen = sm.l
	}
	// Kraft check: the canonical construction must exactly fill the tree.
	kraft := 0.0
	for _, sm := range syms {
		kraft += 1 / float64(uint64(1)<<uint(sm.l))
	}
	if kraft > 1+1e-9 {
		return nil, fmt.Errorf("encoding: Kraft sum %v exceeds 1", kraft)
	}
	return &HuffmanCode{lengths: lengths, codes: codes}, nil
}

// ExpectedLength returns Σ p(x)·len(x): the expected single-shot cost, which
// Huffman's theorem pins to [H(X), H(X)+1).
func (c *HuffmanCode) ExpectedLength(d prob.Dist) (float64, error) {
	if d.Size() != len(c.lengths) {
		return 0, fmt.Errorf("encoding: distribution support %d vs code support %d", d.Size(), len(c.lengths))
	}
	e := 0.0
	for x := 0; x < d.Size(); x++ {
		p := d.P(x)
		if p == 0 {
			continue
		}
		if c.lengths[x] == 0 {
			return 0, fmt.Errorf("encoding: positive-probability symbol %d lacks a codeword", x)
		}
		e += p * float64(c.lengths[x])
	}
	return e, nil
}
