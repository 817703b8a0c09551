package andk

import (
	"fmt"
	"math"
	"testing"

	"broadcastic/internal/andk/andktest"
	"broadcastic/internal/core"
	"broadcastic/internal/dist"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

func TestClosedFormValidation(t *testing.T) {
	if _, err := SequentialCICExact(1); err == nil {
		t.Fatal("k=1 CIC succeeded")
	}
	if _, err := SequentialICExact(1); err == nil {
		t.Fatal("k=1 IC succeeded")
	}
	if _, err := BroadcastAllCICExact(1); err == nil {
		t.Fatal("k=1 broadcast-all CIC succeeded")
	}
	for _, km := range [][2]int{{1, 1}, {4, 0}, {4, 5}} {
		if _, err := andktest.TruncatedCICExact(km[0], km[1]); err == nil {
			t.Fatalf("truncated CIC at k=%d m=%d succeeded", km[0], km[1])
		}
	}
}

// TestBroadcastAllAndTruncatedClosedFormsMatchEnumeration pins the
// closed forms against exact transcript-tree enumeration at every
// enumerable k and every truncation m.
func TestBroadcastAllAndTruncatedClosedFormsMatchEnumeration(t *testing.T) {
	for k := 2; k <= 10; k++ {
		mu, err := dist.NewMu(k)
		if err != nil {
			t.Fatal(err)
		}
		all, err := NewBroadcastAll(k)
		if err != nil {
			t.Fatal(err)
		}
		report, err := core.ExactCosts(all, mu, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		cic, err := BroadcastAllCICExact(k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cic-report.CIC) > 1e-9 {
			t.Fatalf("k=%d: broadcast-all closed form %v vs enumerated %v", k, cic, report.CIC)
		}
		for m := 1; m <= k; m++ {
			tr, err := andktest.NewTruncated(k, m)
			if err != nil {
				t.Fatal(err)
			}
			report, err := core.ExactCosts(tr, mu, core.TreeLimits{})
			if err != nil {
				t.Fatal(err)
			}
			cic, err := andktest.TruncatedCICExact(k, m)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(cic-report.CIC) > 1e-9 {
				t.Fatalf("k=%d m=%d: truncated closed form %v vs enumerated %v", k, m, cic, report.CIC)
			}
		}
		seq, err := SequentialCICExact(k)
		if err != nil {
			t.Fatal(err)
		}
		if full, _ := andktest.TruncatedCICExact(k, k); math.Abs(full-seq) > 1e-12 {
			t.Fatalf("k=%d: truncated at m=k %v != sequential %v", k, full, seq)
		}
	}
}

// TestClosedFormsMatchCompiledEstimate pins the compiled estimator, far
// past enumeration, against the closed forms it shares no code with: the
// Sequential, BroadcastAll and Truncated(k, ⌈k/2⌉) estimates under μ must
// each land within 4 standard errors, with the IR engine serving every
// sample.
func TestClosedFormsMatchCompiledEstimate(t *testing.T) {
	const samples = 4000
	for _, k := range []int{64, 1024, 2048} {
		mu, err := dist.NewMu(k)
		if err != nil {
			t.Fatal(err)
		}
		m := (k + 1) / 2
		seq, _ := NewSequential(k)
		all, _ := NewBroadcastAll(k)
		tr, _ := andktest.NewTruncated(k, m)
		seqCIC, _ := SequentialCICExact(k)
		allCIC, _ := BroadcastAllCICExact(k)
		trCIC, _ := andktest.TruncatedCICExact(k, m)
		for _, tc := range []struct {
			name  string
			spec  core.Spec
			exact float64
		}{
			{"sequential", seq, seqCIC},
			{"broadcast-all", all, allCIC},
			{"truncated", tr, trCIC},
		} {
			col := telemetry.NewCollector()
			est, err := core.EstimateCICOpts(tc.spec, mu, rng.New(uint64(k)), samples,
				core.EstimateOptions{Workers: 2, Recorder: col})
			if err != nil {
				t.Fatal(err)
			}
			if got := col.Snapshot()[telemetry.CoreCICIRSamples]; got != samples {
				t.Fatalf("k=%d %s: IR engine served %v samples, want %d", k, tc.name, got, samples)
			}
			if diff := math.Abs(est.Mean - tc.exact); diff > 4*est.StdErr {
				t.Fatalf("k=%d %s: estimate %v ± %v vs closed form %v (%.1f stderr)",
					k, tc.name, est.Mean, est.StdErr, tc.exact, diff/est.StdErr)
			}
		}
	}
}

func TestClosedFormsMatchEnumeration(t *testing.T) {
	// The closed forms must agree with exact transcript-tree enumeration
	// at every enumerable k.
	for k := 2; k <= 12; k++ {
		spec, err := NewSequential(k)
		if err != nil {
			t.Fatal(err)
		}
		mu, err := dist.NewMu(k)
		if err != nil {
			t.Fatal(err)
		}
		report, err := core.ExactCosts(spec, mu, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		cic, err := SequentialCICExact(k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cic-report.CIC) > 1e-9 {
			t.Fatalf("k=%d: closed-form CIC %v vs enumerated %v", k, cic, report.CIC)
		}
		ic, err := SequentialICExact(k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ic-report.ExternalIC) > 1e-9 {
			t.Fatalf("k=%d: closed-form IC %v vs enumerated %v", k, ic, report.ExternalIC)
		}
	}
}

func TestClosedFormCICMatchesMonteCarlo(t *testing.T) {
	// Beyond enumeration range, the unbiased sampler must agree with the
	// closed form within a few standard errors.
	const k = 512
	spec, _ := NewSequential(k)
	mu, _ := dist.NewMu(k)
	est, err := core.EstimateCICOpts(spec, mu, rng.New(41), 20000, core.EstimateOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cic, err := SequentialCICExact(k)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(est.Mean - cic); diff > 5*est.StdErr+1e-6 {
		t.Fatalf("MC %v ± %v vs closed form %v", est.Mean, est.StdErr, cic)
	}
}

func TestClosedFormAsymptotics(t *testing.T) {
	// CIC(k) → (log₂e + log₂k)/e and IC(k) stays within the entropy bound
	// log₂(k+1); both grow with log k.
	prevCIC, prevIC := 0.0, 0.0
	for _, k := range []int{1 << 6, 1 << 10, 1 << 14, 1 << 18} {
		cic, err := SequentialCICExact(k)
		if err != nil {
			t.Fatal(err)
		}
		ic, err := SequentialICExact(k)
		if err != nil {
			t.Fatal(err)
		}
		limit := (math.Log2(math.E) + math.Log2(float64(k))) / math.E
		if math.Abs(cic-limit) > 0.05*limit {
			t.Fatalf("k=%d: CIC %v far from asymptote %v", k, cic, limit)
		}
		if ic > math.Log2(float64(k+1)) {
			t.Fatalf("k=%d: IC %v above entropy bound", k, ic)
		}
		if cic <= prevCIC || ic <= prevIC {
			t.Fatalf("k=%d: costs not increasing (CIC %v after %v, IC %v after %v)",
				k, cic, prevCIC, ic, prevIC)
		}
		if cic > ic {
			t.Fatalf("k=%d: CIC %v above IC %v", k, cic, ic)
		}
		prevCIC, prevIC = cic, ic
	}
}

// BroadcastAllCICExact returns the exact conditional information cost of
// the all-speak AND_k protocol under μ, in bits. Given Z = z the transcript
// is the whole input, so I(Π; X | Z) = H(X | Z): the special player's bit
// is fixed and each of the other k−1 is an independent Bernoulli(1/k)
// zero, giving (k−1)·h(1/k) with h the binary entropy.
func BroadcastAllCICExact(k int) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("andk: closed form requires k >= 2, got %d", k)
	}
	return float64(k-1) * binaryEntropy(1/float64(k)), nil
}

// binaryEntropy is h(p) = −p·log₂p − (1−p)·log₂(1−p), for p in (0, 1).
func binaryEntropy(p float64) float64 {
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}
