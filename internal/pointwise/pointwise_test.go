package pointwise

import (
	"fmt"
	"testing"

	"broadcastic/internal/bitvec"
	"broadcastic/internal/rng"
)

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(0, []*bitvec.Vector{newVec(t, 0)}); err == nil {
		t.Fatal("n=0 succeeded")
	}
	if _, err := NewInstance(4, nil); err == nil {
		t.Fatal("no players succeeded")
	}
	if _, err := NewInstance(4, []*bitvec.Vector{nil}); err == nil {
		t.Fatal("nil set succeeded")
	}
	if _, err := NewInstance(4, []*bitvec.Vector{newVec(t, 5)}); err == nil {
		t.Fatal("universe mismatch succeeded")
	}
}

func TestGenerateValidation(t *testing.T) {
	src := rng.New(601)
	if _, err := Generate(nil, 4, 2, 0.5); err == nil {
		t.Fatal("nil source succeeded")
	}
	if _, err := Generate(src, 0, 2, 0.5); err == nil {
		t.Fatal("n=0 succeeded")
	}
	if _, err := Generate(src, 4, 0, 0.5); err == nil {
		t.Fatal("k=0 succeeded")
	}
	if _, err := Generate(src, 4, 2, -1); err == nil {
		t.Fatal("negative density succeeded")
	}
}

func TestSolveUnionCorrectRandom(t *testing.T) {
	src := rng.New(602)
	for trial := 0; trial < 120; trial++ {
		n := src.Intn(400) + 1
		k := src.Intn(8) + 1
		density := src.Float64()
		inst, err := Generate(src, n, k, density)
		if err != nil {
			t.Fatal(err)
		}
		want, err := inst.TrueUnion()
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveUnion(inst)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
		if !res.Union.Equal(want) {
			t.Fatalf("n=%d k=%d: union mismatch", n, k)
		}
	}
	if _, err := SolveUnion(nil); err == nil {
		t.Fatal("nil instance succeeded")
	}
	if _, err := SolveNaive(nil); err == nil {
		t.Fatal("naive nil instance succeeded")
	}
}

func TestSolveUnionEdgeCases(t *testing.T) {
	// Empty sets: union empty, everyone still sends a count.
	empty := []*bitvec.Vector{newVec(t, 8), newVec(t, 8)}
	inst, _ := NewInstance(8, empty)
	res, err := SolveUnion(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Union.Count() != 0 {
		t.Fatal("empty instance produced non-empty union")
	}
	if res.Bits < 2 {
		t.Fatalf("union of empty sets cost %d bits; every player must speak", res.Bits)
	}

	// Full sets: player 1 claims everything, player 2's message is tiny.
	full := []*bitvec.Vector{newVec(t, 8), newVec(t, 8)}
	full[0].SetAll()
	full[1].SetAll()
	inst, _ = NewInstance(8, full)
	res, err = SolveUnion(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Union.Count() != 8 {
		t.Fatal("full instance union incomplete")
	}
}

func TestUnionCostNearInformationBound(t *testing.T) {
	// For sparse unions the one-pass batched protocol stays within a small
	// factor of the information bound log2 C(n, |U|) + k. For dense unions
	// it degrades gracefully to O(n) (the players are describing per-player
	// ownership, which carries more information than the union itself) —
	// still far below the naive n·k.
	src := rng.New(603)
	const n, k = 4096, 8
	for _, density := range []float64{0.01, 0.1} {
		inst, err := Generate(src, n, k, density)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveUnion(inst)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := InformationLowerBound(n, res.Union.Count(), k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bits < lb {
			t.Fatalf("density %v: protocol %d bits below the information bound %d",
				density, res.Bits, lb)
		}
		if float64(res.Bits) > 3*float64(lb)+64 {
			t.Fatalf("density %v: protocol %d bits too far above bound %d",
				density, res.Bits, lb)
		}
	}
	// Dense regime: cost ≈ Σ_i z_i ≤ 2n, far below naive n·k.
	inst, err := Generate(src, n, k, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveUnion(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits > 3*n {
		t.Fatalf("dense union cost %d bits exceeds 3n", res.Bits)
	}
	if res.Bits >= n*k {
		t.Fatalf("dense union cost %d bits not below naive %d", res.Bits, n*k)
	}
}

func TestUnionBeatsNaiveOnSparseInputs(t *testing.T) {
	src := rng.New(604)
	inst, err := Generate(src, 8192, 4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := SolveUnion(inst)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := SolveNaive(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !batched.Union.Equal(naive.Union) {
		t.Fatal("protocols disagree on the union")
	}
	if batched.Bits >= naive.Bits {
		t.Fatalf("batched %d bits not below naive %d on sparse inputs", batched.Bits, naive.Bits)
	}
}

func TestInformationLowerBoundValidation(t *testing.T) {
	if _, err := InformationLowerBound(8, -1, 2); err == nil {
		t.Fatal("negative union size succeeded")
	}
	if _, err := InformationLowerBound(8, 9, 2); err == nil {
		t.Fatal("union size > n succeeded")
	}
	lb, err := InformationLowerBound(8, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 3 {
		t.Fatalf("empty-union bound %d, want k=3", lb)
	}
	lb, err = InformationLowerBound(8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 3 {
		t.Fatalf("full-union bound %d, want k=3", lb)
	}
}

// SolveNaive is the baseline: every player writes its raw n-bit
// characteristic vector — n·k bits regardless of the union's size.
func SolveNaive(inst *Instance) (*Result, error) {
	if inst == nil {
		return nil, fmt.Errorf("pointwise: nil instance")
	}
	union, err := inst.TrueUnion()
	if err != nil {
		return nil, err
	}
	return &Result{Union: union, Bits: inst.N * inst.K}, nil
}

// newVec returns an all-zero vector over [0, n).
func newVec(t *testing.T, n int) *bitvec.Vector {
	t.Helper()
	v, err := bitvec.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
