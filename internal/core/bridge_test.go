package core_test

import (
	"math"
	"testing"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/core/coretest"
	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

func TestBridgeMatchesDirectExecution(t *testing.T) {
	// Every deterministic input must produce the same transcript, output
	// and bit count on the physical board as in the analytical engine.
	const k = 5
	spec, _ := andk.NewSequential(k)
	for _, x := range coretest.AllBinaryInputs(k) {
		run, err := coretest.RunSpecOnBlackboard(spec, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, leaf, err := coretest.SampleTranscript(spec, x, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if run.Output != leaf.Output {
			t.Fatalf("input %v: board output %d, engine output %d", x, run.Output, leaf.Output)
		}
		if run.Board.TotalBits() != leaf.Bits {
			t.Fatalf("input %v: board %d bits, engine charges %d", x, run.Board.TotalBits(), leaf.Bits)
		}
		if len(run.Transcript) != len(leaf.Transcript) {
			t.Fatalf("input %v: transcripts differ: %v vs %v", x, run.Transcript, leaf.Transcript)
		}
		for i := range run.Transcript {
			if run.Transcript[i] != leaf.Transcript[i] {
				t.Fatalf("input %v: transcripts differ: %v vs %v", x, run.Transcript, leaf.Transcript)
			}
		}
		// Per-player accounting: each player that spoke wrote exactly 1 bit.
		for i := 0; i < k; i++ {
			want := 0
			if i < len(run.Transcript) {
				want = 1
			}
			if got := run.Board.PlayerBits(i); got != want {
				t.Fatalf("input %v: player %d wrote %d bits, want %d", x, i, got, want)
			}
		}
	}
}

func TestBridgeRandomizedProtocol(t *testing.T) {
	// The Lazy protocol's give-up rate must survive the bridge.
	const k, delta = 3, 0.3
	spec, err := andk.NewLazy(k, delta, 0)
	if err != nil {
		t.Fatal(err)
	}
	private := rng.New(77)
	const trials = 20000
	gaveUp := 0
	for i := 0; i < trials; i++ {
		run, err := coretest.RunSpecOnBlackboard(spec, []int{1, 1, 1}, private)
		if err != nil {
			t.Fatal(err)
		}
		if run.Transcript[0] == 1 {
			gaveUp++
		}
	}
	if rate := float64(gaveUp) / trials; math.Abs(rate-delta) > 0.015 {
		t.Fatalf("bridge give-up rate %v, want %v", rate, delta)
	}
}

func TestBridgeRequiresRandomnessForRandomizedSpecs(t *testing.T) {
	spec, _ := andk.NewLazy(3, 0.5, 0)
	if _, err := coretest.RunSpecOnBlackboard(spec, []int{1, 1, 1}, nil); err == nil {
		t.Fatal("randomized spec without a source succeeded")
	}
}

func TestBridgeInputValidation(t *testing.T) {
	spec, _ := andk.NewSequential(3)
	if _, err := coretest.RunSpecOnBlackboard(spec, []int{1}, nil); err == nil {
		t.Fatal("short input succeeded")
	}
}

func TestBridgeRejectsInconsistentCharging(t *testing.T) {
	// A spec whose declared MessageBits disagrees with the fixed-width
	// encoding must be refused rather than mis-accounted.
	spec := badChargingSpec{}
	if _, err := coretest.RunSpecOnBlackboard(spec, []int{0}, nil); err == nil {
		t.Fatal("inconsistent charging accepted")
	}
}

type badChargingSpec struct{}

func (badChargingSpec) NumPlayers() int { return 1 }
func (badChargingSpec) InputSize() int  { return 2 }
func (badChargingSpec) NextSpeaker(t core.Transcript) (int, bool, error) {
	if len(t) >= 1 {
		return 0, true, nil
	}
	return 0, false, nil
}
func (badChargingSpec) MessageAlphabet(core.Transcript) (int, error) { return 2, nil }
func (badChargingSpec) MessageDist(t core.Transcript, player, input int) (prob.Dist, error) {
	return prob.Point(2, input)
}
func (badChargingSpec) MessageBits(core.Transcript, int) (int, error) { return 7, nil } // wrong
func (badChargingSpec) Output(core.Transcript) (int, error)           { return 0, nil }
