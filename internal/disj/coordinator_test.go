package disj_test

import (
	"testing"

	"broadcastic/internal/disj"
	"broadcastic/internal/rng"
)

// The coordinator protocol is exact and costs exactly n·k bits in k
// messages — the Θ(nk) behavior E21 charts against the broadcast
// protocol's Θ(n log k + k).
func TestCoordinatorExact(t *testing.T) {
	cases := []struct {
		name string
		inst func(t *testing.T) *disj.Instance
	}{
		{"disjoint", func(t *testing.T) *disj.Instance {
			inst, err := disj.GenerateDisjoint(rng.New(11), 96, 4, 0.35)
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}},
		{"intersecting", func(t *testing.T) *disj.Instance {
			inst, err := disj.GenerateIntersecting(rng.New(22), 96, 4, 1, 0.35)
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst(t)
			truth, err := inst.Disjoint()
			if err != nil {
				t.Fatal(err)
			}
			out, err := disj.SolveCoordinator(inst)
			if err != nil {
				t.Fatal(err)
			}
			if out.Disjoint != truth {
				t.Fatalf("answer %v, truth %v", out.Disjoint, truth)
			}
			if want := inst.N * inst.K; out.Bits != want {
				t.Fatalf("exact protocol cost %d bits, want n*k = %d", out.Bits, want)
			}
			if out.Messages != inst.K {
				t.Fatalf("protocol used %d messages, want k = %d", out.Messages, inst.K)
			}
		})
	}
}

// A nil instance is rejected up front.
func TestCoordinatorRejectsNilInstance(t *testing.T) {
	if _, err := disj.NewCoordinatorProtocol(nil); err == nil {
		t.Fatal("nil instance accepted")
	}
}
