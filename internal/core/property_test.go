package core_test

import (
	"math"
	"testing"

	"broadcastic/internal/core"
	"broadcastic/internal/encoding"
	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// randomSpec is an arbitrary randomized broadcast protocol with a fixed
// round schedule: at round r, player speakers[r] emits a symbol from an
// alphabet of size alphabets[r], with a distribution depending on its input
// AND on the parity of the transcript so far (so message behaviour is
// genuinely content-dependent, exercising the q-factor tracking).
type randomSpec struct {
	k, inputSize int
	speakers     []int
	alphabets    []int
	tables       [][][]prob.Dist // [round][parity][input]
}

func newRandomSpec(src *rng.Source, k, inputSize, rounds, maxAlphabet int) *randomSpec {
	s := &randomSpec{k: k, inputSize: inputSize}
	for r := 0; r < rounds; r++ {
		s.speakers = append(s.speakers, src.Intn(k))
		alpha := src.Intn(maxAlphabet) + 2
		s.alphabets = append(s.alphabets, alpha)
		byParity := make([][]prob.Dist, 2)
		for p := 0; p < 2; p++ {
			byParity[p] = make([]prob.Dist, inputSize)
			for v := 0; v < inputSize; v++ {
				w := make([]float64, alpha)
				for m := range w {
					w[m] = src.Float64() + 0.05 // keep supports full
				}
				d, err := prob.Normalize(w)
				if err != nil {
					panic(err)
				}
				byParity[p][v] = d
			}
		}
		s.tables = append(s.tables, byParity)
	}
	return s
}

func (s *randomSpec) NumPlayers() int { return s.k }
func (s *randomSpec) InputSize() int  { return s.inputSize }

func (s *randomSpec) parity(t core.Transcript) int {
	sum := 0
	for _, v := range t {
		sum += v
	}
	return sum % 2
}

func (s *randomSpec) NextSpeaker(t core.Transcript) (int, bool, error) {
	if len(t) >= len(s.speakers) {
		return 0, true, nil
	}
	return s.speakers[len(t)], false, nil
}

func (s *randomSpec) MessageAlphabet(t core.Transcript) (int, error) {
	if len(t) >= len(s.alphabets) {
		return 0, errPastEnd
	}
	return s.alphabets[len(t)], nil
}

func (s *randomSpec) MessageDist(t core.Transcript, player, input int) (prob.Dist, error) {
	if len(t) >= len(s.tables) {
		return prob.Dist{}, errPastEnd
	}
	return s.tables[len(t)][s.parity(t)][input], nil
}

func (s *randomSpec) MessageBits(t core.Transcript, symbol int) (int, error) {
	a, err := s.MessageAlphabet(t)
	if err != nil {
		return 0, err
	}
	return encoding.FixedWidth(uint64(a)), nil
}

func (s *randomSpec) Output(t core.Transcript) (int, error) {
	return s.parity(t), nil
}

var errPastEnd = errPastEndType{}

type errPastEndType struct{}

func (errPastEndType) Error() string { return "random spec: past final round" }

var _ core.Spec = (*randomSpec)(nil)

// randomPrior is an arbitrary prior with a nontrivial auxiliary variable
// and full-support per-player conditionals.
type randomPrior struct {
	k, inputSize, aux int
	auxDist           prob.Dist
	players           [][]prob.Dist // [z][player]
}

func newRandomPrior(src *rng.Source, k, inputSize, aux int) *randomPrior {
	p := &randomPrior{k: k, inputSize: inputSize, aux: aux}
	w := make([]float64, aux)
	for z := range w {
		w[z] = src.Float64() + 0.1
	}
	d, err := prob.Normalize(w)
	if err != nil {
		panic(err)
	}
	p.auxDist = d
	for z := 0; z < aux; z++ {
		row := make([]prob.Dist, k)
		for i := 0; i < k; i++ {
			pw := make([]float64, inputSize)
			for v := range pw {
				pw[v] = src.Float64() + 0.05
			}
			pd, err := prob.Normalize(pw)
			if err != nil {
				panic(err)
			}
			row[i] = pd
		}
		p.players = append(p.players, row)
	}
	return p
}

func (p *randomPrior) NumPlayers() int       { return p.k }
func (p *randomPrior) InputSize() int        { return p.inputSize }
func (p *randomPrior) AuxSize() int          { return p.aux }
func (p *randomPrior) AuxProb(z int) float64 { return p.auxDist.P(z) }
func (p *randomPrior) PlayerDist(z, i int) (prob.Dist, error) {
	return p.players[z][i], nil
}

var _ core.Prior = (*randomPrior)(nil)

func TestRandomSpecInvariants(t *testing.T) {
	// For arbitrary randomized protocols and arbitrary conditional-product
	// priors:
	//   (1) the factored CIC equals the brute-force joint CIC;
	//   (2) information never exceeds communication;
	//   (3) per-input leaf probabilities sum to 1;
	//   (4) the Monte-Carlo estimator agrees with the exact value.
	meta := rng.New(2024)
	for trial := 0; trial < 12; trial++ {
		src := meta.Split(uint64(trial))
		k := src.Intn(2) + 2         // 2..3 players
		inputSize := src.Intn(2) + 2 // 2..3 values
		rounds := src.Intn(3) + 2    // 2..4 rounds
		aux := src.Intn(3) + 1       // 1..3 aux values
		spec := newRandomSpec(src, k, inputSize, rounds, 2)
		prior := newRandomPrior(src, k, inputSize, aux)

		report, err := core.ExactCosts(spec, prior, core.TreeLimits{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		joint, err := core.ExactCICJoint(spec, prior, core.TreeLimits{})
		if err != nil {
			t.Fatalf("trial %d joint: %v", trial, err)
		}
		if math.Abs(report.CIC-joint) > 1e-9 {
			t.Fatalf("trial %d: factored CIC %v != joint %v", trial, report.CIC, joint)
		}
		if report.ExternalIC > report.ExpectedBits+1e-9 {
			t.Fatalf("trial %d: IC %v exceeds expected bits %v", trial, report.ExternalIC, report.ExpectedBits)
		}
		if report.CIC < 0 || report.ExternalIC < 0 {
			t.Fatalf("trial %d: negative information cost %+v", trial, report)
		}

		// (3) total probability per input.
		leaves, err := core.EnumerateTranscripts(spec, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]int, k)
		for mask := 0; mask < pow(inputSize, k); mask++ {
			v := mask
			for i := range x {
				x[i] = v % inputSize
				v /= inputSize
			}
			total := 0.0
			for _, leaf := range leaves {
				pl, err := leaf.ProbGivenInput(x)
				if err != nil {
					t.Fatal(err)
				}
				total += pl
			}
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("trial %d input %v: leaf probabilities sum to %v", trial, x, total)
			}
		}

		// (4) Monte-Carlo agreement.
		est, err := core.EstimateCICOpts(spec, prior, src.Split(999), 8000, core.EstimateOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(est.Mean - report.CIC); diff > 5*est.StdErr+0.01 {
			t.Fatalf("trial %d: MC estimate %v ± %v vs exact %v", trial, est.Mean, est.StdErr, report.CIC)
		}
	}
}

func TestRandomSpecExternalICEstimator(t *testing.T) {
	// The chain-rule external estimator must agree with exact IC on
	// arbitrary randomized specs too.
	meta := rng.New(55)
	for trial := 0; trial < 6; trial++ {
		src := meta.Split(uint64(trial))
		spec := newRandomSpec(src, 2, 2, 3, 2)
		prior := newRandomPrior(src, 2, 2, 2)
		report, err := core.ExactCosts(spec, prior, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		est, err := core.EstimateExternalIC(spec, prior, src.Split(1000), 12000)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(est.Mean - report.ExternalIC); diff > 5*est.StdErr+0.01 {
			t.Fatalf("trial %d: estimate %v ± %v vs exact %v", trial, est.Mean, est.StdErr, report.ExternalIC)
		}
	}
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
