package andk

import (
	"math"
	"testing"

	"broadcastic/internal/andk/andktest"
	"broadcastic/internal/core"
	"broadcastic/internal/core/coretest"
	"broadcastic/internal/dist"
	"broadcastic/internal/rng"
)

func TestNewSequentialValidation(t *testing.T) {
	if _, err := NewSequential(0); err == nil {
		t.Fatal("k=0 succeeded")
	}
}

func TestSequentialBehaviour(t *testing.T) {
	s, err := NewSequential(3)
	if err != nil {
		t.Fatal(err)
	}
	// Empty transcript: player 0 speaks.
	p, done, err := s.NextSpeaker(nil)
	if err != nil || done || p != 0 {
		t.Fatalf("NextSpeaker(empty) = %d,%v,%v", p, done, err)
	}
	// After a zero: done.
	_, done, err = s.NextSpeaker(core.Transcript{1, 0})
	if err != nil || !done {
		t.Fatalf("NextSpeaker(10) done=%v err=%v", done, err)
	}
	// After k ones: done.
	_, done, err = s.NextSpeaker(core.Transcript{1, 1, 1})
	if err != nil || !done {
		t.Fatalf("NextSpeaker(111) done=%v err=%v", done, err)
	}
	// Mid-protocol: player len(t).
	p, done, err = s.NextSpeaker(core.Transcript{1})
	if err != nil || done || p != 1 {
		t.Fatalf("NextSpeaker(1) = %d,%v,%v", p, done, err)
	}
	// Overlong transcript: error.
	if _, _, err := s.NextSpeaker(core.Transcript{1, 1, 1, 1}); err == nil {
		t.Fatal("overlong transcript succeeded")
	}
}

func TestSequentialOutputs(t *testing.T) {
	s, _ := NewSequential(3)
	out, err := s.Output(core.Transcript{1, 1, 1})
	if err != nil || out != 1 {
		t.Fatalf("Output(111) = %d,%v", out, err)
	}
	out, err = s.Output(core.Transcript{1, 0})
	if err != nil || out != 0 {
		t.Fatalf("Output(10) = %d,%v", out, err)
	}
	if _, err := s.Output(nil); err == nil {
		t.Fatal("output of empty transcript succeeded")
	}
	if _, err := s.Output(core.Transcript{1, 1}); err == nil {
		t.Fatal("output of non-final transcript succeeded")
	}
}

func TestSequentialMessageDist(t *testing.T) {
	s, _ := NewSequential(3)
	d, err := s.MessageDist(nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.P(1) != 1 {
		t.Fatalf("MessageDist(input=1) = %v", d.Probs())
	}
	if _, err := s.MessageDist(nil, 0, 2); err == nil {
		t.Fatal("non-binary input succeeded")
	}
	if _, err := s.MessageBits(nil, 2); err == nil {
		t.Fatal("invalid symbol bits succeeded")
	}
}

func TestSequentialCorrectOnAllInputs(t *testing.T) {
	for _, k := range []int{1, 2, 4, 6} {
		s, _ := NewSequential(k)
		e, err := coretest.WorstCaseError(s, coretest.AllBinaryInputs(k), coretest.AndFunc, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		if e != 0 {
			t.Fatalf("k=%d: error %v", k, e)
		}
	}
}

func TestSequentialWorstCaseCommunicationIsK(t *testing.T) {
	const k = 7
	s, _ := NewSequential(k)
	mu, _ := dist.NewMu(k)
	report, err := core.ExactCosts(s, mu, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if report.WorstCaseBits != k {
		t.Fatalf("worst-case bits = %d, want %d", report.WorstCaseBits, k)
	}
}

func TestBroadcastAllAlwaysSpeaksK(t *testing.T) {
	const k = 5
	b, err := NewBroadcastAll(k)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := core.EnumerateTranscripts(b, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 1<<k {
		t.Fatalf("%d transcripts, want %d", len(leaves), 1<<k)
	}
	for _, leaf := range leaves {
		if leaf.Bits != k {
			t.Fatalf("leaf bits %d, want %d", leaf.Bits, k)
		}
	}
	e, err := coretest.WorstCaseError(b, coretest.AllBinaryInputs(k), coretest.AndFunc, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("broadcast-all error %v", e)
	}
	if _, err := NewBroadcastAll(0); err == nil {
		t.Fatal("k=0 succeeded")
	}
	if _, err := b.Output(core.Transcript{1}); err == nil {
		t.Fatal("short-transcript output succeeded")
	}
}

func TestTruncatedValidation(t *testing.T) {
	if _, err := andktest.NewTruncated(4, 0); err == nil {
		t.Fatal("m=0 succeeded")
	}
	if _, err := andktest.NewTruncated(4, 5); err == nil {
		t.Fatal("m>k succeeded")
	}
}

func TestTruncatedEqualsSequentialAtFullLength(t *testing.T) {
	const k = 5
	tr, _ := andktest.NewTruncated(k, k)
	e, err := coretest.WorstCaseError(tr, coretest.AllBinaryInputs(k), coretest.AndFunc, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("full-length truncated protocol error %v", e)
	}
}

func TestTruncatedDistributionalErrorMatchesLemma6(t *testing.T) {
	// Under the Lemma 6 distribution with parameter ε', the truncated
	// protocol answering after m speakers errs exactly when the single
	// zero sits beyond the first m players:
	// error = (1−ε')·(k−m)/k.
	const k, m = 8, 3
	const epsPrime = 0.25
	d, err := dist.NewLemma6Dist(k, epsPrime)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(201)
	const trials = 200000
	wrong := 0
	for i := 0; i < trials; i++ {
		x := make([]int, k)
		for j := range x {
			x[j] = 1
		}
		if z := d.SampleZero(src); z >= 0 {
			x[z] = 0
		}
		// The protocol is deterministic; simulate directly.
		out := 1
		for j := 0; j < m; j++ {
			if x[j] == 0 {
				out = 0
				break
			}
		}
		if out != coretest.AndFunc(x) {
			wrong++
		}
	}
	got := float64(wrong) / trials
	want := (1 - epsPrime) * float64(k-m) / float64(k)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("truncated error %v, want %v", got, want)
	}
}

func TestLazyValidation(t *testing.T) {
	if _, err := NewLazy(0, 0.1, 0); err == nil {
		t.Fatal("k=0 succeeded")
	}
	if _, err := NewLazy(3, -0.1, 0); err == nil {
		t.Fatal("negative delta succeeded")
	}
	if _, err := NewLazy(3, 1, 0); err == nil {
		t.Fatal("delta=1 succeeded")
	}
	if _, err := NewLazy(3, 0.5, 2); err == nil {
		t.Fatal("invalid give-up output succeeded")
	}
}

func TestLazyTranscriptTree(t *testing.T) {
	// Lazy over k players has (k+1) sequential leaves + 1 give-up leaf.
	const k = 4
	l, err := NewLazy(k, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := core.EnumerateTranscripts(l, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != k+2 {
		t.Fatalf("%d leaves, want %d", len(leaves), k+2)
	}
	if _, err := l.Output(nil); err == nil {
		t.Fatal("empty-transcript output succeeded")
	}
	if _, err := l.Output(core.Transcript{0}); err == nil {
		t.Fatal("non-final transcript output succeeded")
	}
	out, err := l.Output(core.Transcript{1})
	if err != nil || out != 0 {
		t.Fatalf("give-up output = %d,%v", out, err)
	}
}

func TestLazyGiveUpProbability(t *testing.T) {
	const k = 3
	const delta = 0.3
	l, _ := NewLazy(k, delta, 0)
	src := rng.New(202)
	gaveUp := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		tr, _, err := coretest.SampleTranscript(l, []int{1, 1, 1}, src)
		if err != nil {
			t.Fatal(err)
		}
		if tr[0] == 1 {
			gaveUp++
		}
	}
	if math.Abs(float64(gaveUp)/trials-delta) > 0.01 {
		t.Fatalf("give-up rate %v, want %v", float64(gaveUp)/trials, delta)
	}
}

func TestInfoCommGapGrows(t *testing.T) {
	// E7 at test scale: CC(sequential)/CIC(sequential) grows with k —
	// the Ω(k / log k) gap of Section 6.
	var prevRatio float64
	for _, k := range []int{4, 8, 12} {
		s, _ := NewSequential(k)
		mu, _ := dist.NewMu(k)
		report, err := core.ExactCosts(s, mu, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(report.WorstCaseBits) / report.CIC
		if ratio <= prevRatio {
			t.Fatalf("gap ratio not growing: k=%d gives %v after %v", k, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}
