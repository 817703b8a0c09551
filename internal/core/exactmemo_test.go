package core_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/disj"
	"broadcastic/internal/dist"
	"broadcastic/internal/ir"
	"broadcastic/internal/prob"
)

// exactPair is one keyed (spec, prior) pair an experiment passes to
// core.ExactCosts.
type exactPair struct {
	name  string
	spec  core.Spec
	prior core.Prior
}

// exactPairs lists every keyed pair the experiments pass to ExactCosts:
// Sequential × μ at k = 2..12 (E4, E7, E11), E5's per-coordinate DISJ
// copies under μ^n, and E18's three k = 2 protocols under μ₂ and the
// uniform product prior.
func exactPairs(t *testing.T) []exactPair {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var pairs []exactPair
	for k := 2; k <= 12; k++ {
		spec, err := andk.NewSequential(k)
		must(err)
		mu, err := dist.NewMu(k)
		must(err)
		pairs = append(pairs, exactPair{fmt.Sprintf("seq%d/mu", k), spec, mu})
	}
	for n := 1; n <= 4; n++ {
		spec, err := disj.NewSequentialSpec(n, 4)
		must(err)
		mun, err := dist.NewMuN(4, n)
		must(err)
		pairs = append(pairs, exactPair{fmt.Sprintf("disj%d/mun", n), spec, mun})
	}
	mu2, err := dist.NewMu(2)
	must(err)
	half, err := prob.Bernoulli(0.5)
	must(err)
	uniform, err := dist.NewProductPrior([]prob.Dist{half, half})
	must(err)
	seq, err := andk.NewSequential(2)
	must(err)
	all, err := andk.NewBroadcastAll(2)
	must(err)
	lazy, err := andk.NewLazy(2, 0.3, 0)
	must(err)
	for _, s := range []struct {
		name string
		spec core.Spec
	}{{"seq2", seq}, {"all2", all}, {"lazy2", lazy}} {
		pairs = append(pairs,
			exactPair{s.name + "/mu2", s.spec, mu2},
			exactPair{s.name + "/uniform", s.spec, uniform})
	}
	return pairs
}

// sameReport compares two reports field by field, floats by bit pattern.
func sameReport(a, b *core.CostReport) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if !fa.Equal(fb) {
			return false
		}
	}
	return true
}

var errProbe = errors.New("probe: injected failure")

// probeSpec runs a spec under its own IRKey. While fail is set, every
// NextSpeaker call fails, so a call that enumerates fails at once and a
// call served from the memo still succeeds: which of the two a call
// returns shows whether it was computed or cached. While tiny is set, the
// protocol halts at once, so a successful call is cheap.
type probeSpec struct {
	core.Spec
	key        string
	fail, tiny atomic.Bool
}

func (p *probeSpec) IRKey() string { return p.key }

func (p *probeSpec) NextSpeaker(t core.Transcript) (int, bool, error) {
	switch {
	case p.fail.Load():
		return 0, false, errProbe
	case p.tiny.Load():
		return 0, true, nil
	}
	return p.Spec.NextSpeaker(t)
}

func (p *probeSpec) Output(t core.Transcript) (int, error) {
	if p.tiny.Load() {
		return 0, nil
	}
	return p.Spec.Output(t)
}

// unkeyedPrior hides a prior's IRKey.
type unkeyedPrior struct{ core.Prior }

// TestExactCostsMemo pins the exact-cost memo on every keyed pair the
// experiments use: a cached report is bit-identical to a fresh
// computation, costs a few allocations, is a private copy, and never
// masks a limit, an error, an unkeyed side or a reset.
func TestExactCostsMemo(t *testing.T) {
	defer ir.ResetProgramCache()
	exact := func(spec core.Spec, prior core.Prior) (*core.CostReport, error) {
		return core.ExactCosts(spec, prior, core.TreeLimits{})
	}
	for _, p := range exactPairs(t) {
		t.Run(p.name, func(t *testing.T) {
			// 4 goroutines missing at once get equal reports.
			ir.ResetProgramCache()
			var wg sync.WaitGroup
			start := make(chan struct{})
			reports := make([]*core.CostReport, 4)
			errs := make([]error, len(reports))
			for g := range reports {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					reports[g], errs[g] = exact(p.spec, p.prior)
				}()
			}
			close(start)
			wg.Wait()
			for g, r := range reports {
				if errs[g] != nil || !sameReport(r, reports[0]) {
					t.Fatalf("goroutine %d: %+v (%v), goroutine 0: %+v", g, r, errs[g], reports[0])
				}
			}
			cached, err := exact(p.spec, p.prior)
			if err != nil || !sameReport(cached, reports[0]) {
				t.Fatalf("cached report %+v (%v), computed %+v", cached, err, reports[0])
			}
			want := *cached

			// A hit is a handful of allocations: the keys and the copy. An
			// enumeration costs dozens at k = 2 and hundreds at k = 8.
			if allocs := testing.AllocsPerRun(20, func() { _, _ = exact(p.spec, p.prior) }); allocs > 8 {
				t.Errorf("cached call allocates %.0f objects, want <= 8", allocs)
			}

			// The caller owns the report it gets.
			cached.CIC, cached.ExternalIC, cached.ExpectedBits = -1, -1, -1
			cached.WorstCaseBits, cached.NumTranscripts = -1, -1
			if again, err := exact(p.spec, p.prior); err != nil || !sameReport(again, &want) {
				t.Fatalf("after mutating a returned report the next is %+v (%v), want %+v", again, err, want)
			}

			// Limits are part of the key: a limit that makes enumeration
			// fail still fails after a success under the default limits.
			if want.NumTranscripts < 2 {
				t.Fatalf("pair has %d transcripts; the limit check needs 2", want.NumTranscripts)
			}
			tight := core.TreeLimits{MaxLeaves: want.NumTranscripts - 1}
			if _, err := core.ExactCosts(p.spec, p.prior, tight); !errors.Is(err, core.ErrTreeLeaves) {
				t.Fatalf("MaxLeaves %d after a success: err = %v, want ErrTreeLeaves", tight.MaxLeaves, err)
			}

			// The probe shares the pair's key. After a reset, a failing call
			// caches nothing; the fresh computation that follows equals the
			// report cached before the reset, and is cached in turn until
			// the next reset.
			ir.ResetProgramCache()
			probe := &probeSpec{Spec: p.spec, key: p.spec.(ir.Keyer).IRKey()}
			probe.fail.Store(true)
			if _, err := exact(probe, p.prior); !errors.Is(err, errProbe) {
				t.Fatalf("failing probe: err = %v", err)
			}
			probe.fail.Store(false)
			if r, err := exact(probe, p.prior); err != nil || !sameReport(r, &want) {
				t.Fatalf("fresh computation after a reset and a failed call: %+v (%v), cached %+v", r, err, want)
			}
			probe.fail.Store(true)
			if r, err := exact(probe, p.prior); err != nil || !sameReport(r, &want) {
				t.Fatalf("probe after a success was recomputed: %+v (%v)", r, err)
			}
			ir.ResetProgramCache()
			if _, err := exact(probe, p.prior); !errors.Is(err, errProbe) {
				t.Fatalf("probe after a reset: err = %v, want a recomputation", err)
			}

			// An IRKey of "" and an unkeyed prior are computed every time:
			// after a success, a failing protocol fails.
			for _, c := range []struct {
				name  string
				probe *probeSpec
				prior core.Prior
			}{
				{"empty IRKey", &probeSpec{Spec: p.spec}, p.prior},
				{"unkeyed prior", &probeSpec{Spec: p.spec, key: "probe/" + p.name}, unkeyedPrior{p.prior}},
			} {
				c.probe.tiny.Store(true)
				if r, err := exact(c.probe, c.prior); err != nil || r.NumTranscripts != 1 {
					t.Fatalf("%s: %+v (%v), want the one-transcript report", c.name, r, err)
				}
				c.probe.fail.Store(true)
				if _, err := exact(c.probe, c.prior); !errors.Is(err, errProbe) {
					t.Fatalf("%s: second call err = %v, want a recomputation", c.name, err)
				}
			}
		})
	}
}
