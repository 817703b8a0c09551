package core_test

import (
	"testing"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/dist"
	"broadcastic/internal/rng"
)

func BenchmarkEnumerateTranscripts(b *testing.B) {
	spec, _ := andk.NewSequential(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.EnumerateTranscripts(spec, core.TreeLimits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactCosts times the enumeration: the wrapper hides the spec's
// IRKey, so no call is served from the exact-cost memo.
func BenchmarkExactCosts(b *testing.B) {
	seq, _ := andk.NewSequential(10)
	spec := struct{ core.Spec }{seq}
	mu, _ := dist.NewMu(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactCosts(spec, mu, core.TreeLimits{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateCICK256(b *testing.B) {
	spec, _ := andk.NewSequential(256)
	mu, _ := dist.NewMu(256)
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateCIC(spec, mu, src, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateExternalICK64(b *testing.B) {
	spec, _ := andk.NewSequential(64)
	mu, _ := dist.NewMu(64)
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateExternalIC(spec, mu, src, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleTranscript(b *testing.B) {
	spec, _ := andk.NewSequential(64)
	mu, _ := dist.NewMu(64)
	src := rng.New(1)
	_, x, err := core.SamplePrior(mu, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SampleTranscript(spec, x, src); err != nil {
			b.Fatal(err)
		}
	}
}
