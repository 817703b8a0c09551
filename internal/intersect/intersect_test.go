package intersect

import (
	"fmt"
	"testing"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/encoding"
	"broadcastic/internal/rng"
)

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(0, 1, [][]int{{}}); err == nil {
		t.Fatal("n=0 succeeded")
	}
	if _, err := NewInstance(10, 0, [][]int{{}}); err == nil {
		t.Fatal("s=0 succeeded")
	}
	if _, err := NewInstance(10, 2, nil); err == nil {
		t.Fatal("no players succeeded")
	}
	if _, err := NewInstance(10, 1, [][]int{{1, 2}}); err == nil {
		t.Fatal("oversized set succeeded")
	}
	if _, err := NewInstance(10, 2, [][]int{{2, 1}}); err == nil {
		t.Fatal("unsorted set succeeded")
	}
	if _, err := NewInstance(10, 2, [][]int{{1, 1}}); err == nil {
		t.Fatal("duplicate element succeeded")
	}
	if _, err := NewInstance(10, 2, [][]int{{10}}); err == nil {
		t.Fatal("out-of-range element succeeded")
	}
}

func TestGenerate(t *testing.T) {
	src := rng.New(501)
	inst, err := Generate(src, 1000, 10, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, common := inst.Truth(); !common {
		t.Fatal("planted instance has no common element")
	}
	if _, err := Generate(nil, 10, 2, 2, false); err == nil {
		t.Fatal("nil source succeeded")
	}
	if _, err := Generate(src, 5, 6, 2, false); err == nil {
		t.Fatal("s > n succeeded")
	}
	if _, err := Generate(src, 10, 2, 0, false); err == nil {
		t.Fatal("k=0 succeeded")
	}
}

func TestHashedCorrectRandom(t *testing.T) {
	src := rng.New(502)
	for trial := 0; trial < 200; trial++ {
		n := src.Intn(2000) + 20
		s := src.Intn(15) + 1
		if s > n {
			s = n
		}
		k := src.Intn(6) + 1
		common := src.Uint64()&1 == 1
		inst, err := Generate(src, n, s, k, common)
		if err != nil {
			t.Fatal(err)
		}
		wantElem, want := inst.Truth()
		out, err := SolveHashed(inst, src.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		if out.Common != want {
			t.Fatalf("hashed answered %v, truth %v (n=%d s=%d k=%d)", out.Common, want, n, s, k)
		}
		if out.Common {
			// The witness must really be common to all sets.
			for i, set := range inst.Sets {
				found := false
				for _, e := range set {
					if e == out.Witness {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("witness %d not in player %d's set (truth witness %d)", out.Witness, i, wantElem)
				}
			}
		}
	}
	if _, err := SolveHashed(nil, 1); err == nil {
		t.Fatal("nil instance succeeded")
	}
}

func TestNaiveCorrectRandom(t *testing.T) {
	src := rng.New(503)
	for trial := 0; trial < 100; trial++ {
		n := src.Intn(500) + 10
		s := src.Intn(8) + 1
		k := src.Intn(5) + 1
		inst, err := Generate(src, n, s, k, src.Uint64()&1 == 1)
		if err != nil {
			t.Fatal(err)
		}
		_, want := inst.Truth()
		out, err := SolveNaive(inst)
		if err != nil {
			t.Fatal(err)
		}
		if out.Common != want {
			t.Fatalf("naive answered %v, truth %v", out.Common, want)
		}
	}
	if _, err := SolveNaive(nil); err == nil {
		t.Fatal("nil instance succeeded")
	}
}

func TestHashedCostIndependentOfLogN(t *testing.T) {
	// E13's shape: fixing s and k, the hashed protocol's cost stays flat
	// as n grows by 4096×, while the naive baseline's grows.
	src := rng.New(504)
	const s, k = 16, 3
	var hashedSmall, hashedBig, naiveSmall, naiveBig float64
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		small, err := Generate(src, 1<<8, s, k, false)
		if err != nil {
			t.Fatal(err)
		}
		big, err := Generate(src, 1<<20, s, k, false)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := SolveHashed(small, src.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		hb, err := SolveHashed(big, src.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		ns, err := SolveNaive(small)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := SolveNaive(big)
		if err != nil {
			t.Fatal(err)
		}
		hashedSmall += float64(hs.Bits)
		hashedBig += float64(hb.Bits)
		naiveSmall += float64(ns.Bits)
		naiveBig += float64(nb.Bits)
	}
	if hashedBig > 1.5*hashedSmall {
		t.Fatalf("hashed cost grew with n: %v -> %v", hashedSmall/trials, hashedBig/trials)
	}
	if naiveBig < 1.5*naiveSmall {
		t.Fatalf("naive cost did not grow with n: %v -> %v", naiveSmall/trials, naiveBig/trials)
	}
}

func TestBlackboardMatchesDirect(t *testing.T) {
	// The blackboard execution must agree with the direct solver on both
	// the answer and the exact bit count.
	src := rng.New(505)
	for trial := 0; trial < 50; trial++ {
		n := src.Intn(1000) + 10
		s := src.Intn(10) + 1
		if s > n {
			s = n
		}
		k := src.Intn(5) + 1
		inst, err := Generate(src, n, s, k, src.Uint64()&1 == 1)
		if err != nil {
			t.Fatal(err)
		}
		seed := src.Uint64()
		direct, err := SolveHashed(inst, seed)
		if err != nil {
			t.Fatal(err)
		}
		board, err := RunOnBlackboard(inst, seed)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Common != board.Common {
			t.Fatalf("answers differ: direct %v, blackboard %v", direct.Common, board.Common)
		}
		if direct.Bits != board.Bits {
			t.Fatalf("bit accounting differs: direct %d, blackboard %d", direct.Bits, board.Bits)
		}
	}
	if _, err := RunOnBlackboard(nil, 1); err == nil {
		t.Fatal("nil instance succeeded")
	}
}

// RunOnBlackboard executes the hashing protocol on the blackboard runtime
// (messages physically written, bit counts independently accounted) and
// checks that the physical cost matches SolveHashed's accounting. It
// returns the blackboard outcome.
func RunOnBlackboard(inst *Instance, publicSeed uint64) (*Outcome, error) {
	if inst == nil {
		return nil, fmt.Errorf("intersect: nil instance")
	}
	k := len(inst.Sets)
	m := 2 * inst.S
	hash := func(e int) int {
		h := rng.New(publicSeed ^ (uint64(e)+1)*0x9e3779b97f4a7c15)
		return h.Intn(m)
	}
	width := encoding.FixedWidth(uint64(inst.N))

	// Shared decoded state (a pure function of the board).
	prev := make([]bool, m)
	for i := range prev {
		prev[i] = true
	}
	var (
		candidates []int
		membership []bool
		phase      = 0 // 0: bitmaps, 1: listing, 2: confirmations
		confirmed  = 0
	)

	players := make([]blackboard.Player, k)
	for i := 0; i < k; i++ {
		i := i
		players[i] = blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
			var w encoding.BitWriter
			switch phase {
			case 0: // bitmap round
				cur := make([]bool, m)
				for _, e := range inst.Sets[i] {
					if prev[hash(e)] {
						cur[hash(e)] = true
					}
				}
				for _, bitSet := range cur {
					bit := 0
					if bitSet {
						bit = 1
					}
					if err := w.WriteBit(bit); err != nil {
						return blackboard.Message{}, err
					}
				}
				prev = cur
			case 1: // player 0 lists survivors
				for _, e := range inst.Sets[0] {
					if prev[hash(e)] {
						candidates = append(candidates, e)
					}
				}
				if err := encoding.WriteNonNeg(&w, uint64(len(candidates))); err != nil {
					return blackboard.Message{}, err
				}
				for _, e := range candidates {
					if err := w.WriteBits(uint64(e), width); err != nil {
						return blackboard.Message{}, err
					}
				}
				membership = make([]bool, len(candidates))
				for ci := range membership {
					membership[ci] = true
				}
			case 2: // confirmations
				has := make(map[int]bool, len(inst.Sets[i]))
				for _, e := range inst.Sets[i] {
					has[e] = true
				}
				for ci, e := range candidates {
					bit := 0
					if has[e] {
						bit = 1
					} else {
						membership[ci] = false
					}
					if err := w.WriteBit(bit); err != nil {
						return blackboard.Message{}, err
					}
				}
				confirmed++
			}
			return blackboard.NewMessage(i, &w), nil
		})
	}

	sched := blackboard.FuncScheduler(func(b *blackboard.Board) (int, bool, error) {
		nm := b.NumMessages()
		switch {
		case nm < k:
			phase = 0
			return nm, false, nil
		case nm == k:
			phase = 1
			return 0, false, nil
		case nm < 2*k:
			phase = 2
			return nm - k, false, nil
		default:
			return 0, true, nil
		}
	})

	res, err := blackboard.Run(sched, players, nil, blackboard.Limits{MaxMessages: 2 * k})
	if err != nil {
		return nil, fmt.Errorf("intersect: blackboard run: %w", err)
	}
	out := &Outcome{Bits: res.Board.TotalBits()}
	for ci, ok := range membership {
		if ok {
			out.Common = true
			out.Witness = candidates[ci]
			break
		}
	}
	return out, nil
}
