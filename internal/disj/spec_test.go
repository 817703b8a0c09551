package disj

import (
	"math"
	"testing"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/core/coretest"
	"broadcastic/internal/dist"
)

func TestNewSequentialSpecValidation(t *testing.T) {
	if _, err := NewSequentialSpec(0, 3); err == nil {
		t.Fatal("n=0 succeeded")
	}
	if _, err := NewSequentialSpec(17, 3); err == nil {
		t.Fatal("n=17 succeeded")
	}
	if _, err := NewSequentialSpec(2, 0); err == nil {
		t.Fatal("k=0 succeeded")
	}
}

func TestSequentialSpecCorrect(t *testing.T) {
	// Exhaustive correctness over all inputs for small (n, k).
	for _, cfg := range []struct{ n, k int }{{1, 2}, {2, 2}, {2, 3}, {3, 2}} {
		spec, err := NewSequentialSpec(cfg.n, cfg.k)
		if err != nil {
			t.Fatal(err)
		}
		var inputs [][]int
		size := spec.InputSize()
		total := 1
		for i := 0; i < cfg.k; i++ {
			total *= size
		}
		for idx := 0; idx < total; idx++ {
			x := make([]int, cfg.k)
			v := idx
			for i := range x {
				x[i] = v % size
				v /= size
			}
			inputs = append(inputs, x)
		}
		e, err := coretest.WorstCaseError(spec, inputs, DisjFunc(cfg.n), core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		if e != 0 {
			t.Fatalf("n=%d k=%d: spec errs with probability %v", cfg.n, cfg.k, e)
		}
	}
}

func TestSequentialSpecN1MatchesAnd(t *testing.T) {
	// DISJ_{1,k} is ¬AND: the n=1 spec's CIC under μ^1 must equal the
	// sequential AND_k spec's CIC under μ.
	const k = 4
	spec1, err := NewSequentialSpec(1, k)
	if err != nil {
		t.Fatal(err)
	}
	mun, err := dist.NewMuN(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.ExactCosts(spec1, mun, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	andSpec, _ := andk.NewSequential(k)
	mu, _ := dist.NewMu(k)
	r2, err := core.ExactCosts(andSpec, mu, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.CIC-r2.CIC) > 1e-9 {
		t.Fatalf("DISJ_{1,k} CIC %v != AND_k CIC %v", r1.CIC, r2.CIC)
	}
}

func TestDirectSumAdditivity(t *testing.T) {
	// E5 at test scale: CIC(DISJ_{n,k}) under μ^n should be close to
	// n · CIC(AND_k) under μ. The early halt on a discovered common
	// element never triggers on μ^n's support (all inputs disjoint), so
	// for this protocol the equality is within numerical noise — and the
	// direct-sum lower bound direction (≥, Lemma 1) must hold exactly.
	const k = 3
	andSpec, _ := andk.NewSequential(k)
	mu, _ := dist.NewMu(k)
	base, err := core.ExactCosts(andSpec, mu, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3} {
		spec, err := NewSequentialSpec(n, k)
		if err != nil {
			t.Fatal(err)
		}
		mun, err := dist.NewMuN(k, n)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.ExactCosts(spec, mun, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n) * base.CIC
		if math.Abs(r.CIC-want) > 1e-6 {
			t.Fatalf("n=%d: CIC %v, want n·CIC(AND) = %v", n, r.CIC, want)
		}
	}
}

func TestSequentialSpecParseErrors(t *testing.T) {
	spec, _ := NewSequentialSpec(2, 2)
	if _, _, err := spec.NextSpeaker(core.Transcript{2}); err == nil {
		t.Fatal("invalid symbol succeeded")
	}
	if _, err := spec.Output(core.Transcript{1}); err == nil {
		t.Fatal("output of partial transcript succeeded")
	}
	// Transcript continuing past a halt must error.
	if _, _, err := spec.NextSpeaker(core.Transcript{1, 1, 0}); err == nil {
		t.Fatal("transcript past halt succeeded")
	}
	if _, err := spec.MessageDist(core.Transcript{1, 1}, 0, 0); err == nil {
		t.Fatal("MessageDist after halt succeeded")
	}
	if _, err := spec.MessageDist(nil, 0, 4); err == nil {
		t.Fatal("out-of-range input succeeded")
	}
	if _, err := spec.MessageBits(nil, 2); err == nil {
		t.Fatal("invalid symbol bits succeeded")
	}
}

func TestDisjFunc(t *testing.T) {
	f := DisjFunc(2)
	// Coordinate 0 held by everyone.
	if f([]int{0b01, 0b11}) != 0 {
		t.Fatal("common coordinate not detected")
	}
	// No common coordinate.
	if f([]int{0b01, 0b10}) != 1 {
		t.Fatal("disjoint inputs not detected")
	}
	if f([]int{0, 0}) != 1 {
		t.Fatal("empty sets not disjoint")
	}
}

// DisjFunc is DISJ as a target function over integer-encoded n-bit inputs:
// 1 ⇔ no coordinate is held by all players.
func DisjFunc(n int) func(x []int) int {
	return func(x []int) int {
		for j := 0; j < n; j++ {
			all := true
			for _, xi := range x {
				if xi>>uint(j)&1 == 0 {
					all = false
					break
				}
			}
			if all {
				return 0
			}
		}
		return 1
	}
}
