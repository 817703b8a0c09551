package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c0 := parent.Split(0)
	// Re-derive the same child from a fresh parent: must match.
	parent2 := New(7)
	c0b := parent2.Split(0)
	for i := 0; i < 100; i++ {
		if c0.Uint64() != c0b.Uint64() {
			t.Fatalf("split child not reproducible at step %d", i)
		}
	}
}

func TestSplitNMatchesSequentialSplits(t *testing.T) {
	const n = 8
	a := New(99)
	children := a.SplitN(n)
	b := New(99)
	for i := 0; i < n; i++ {
		want := b.Split(uint64(i))
		for step := 0; step < 50; step++ {
			if got, w := children[i].Uint64(), want.Uint64(); got != w {
				t.Fatalf("SplitN child %d diverged from Split(%d) at step %d", i, i, step)
			}
		}
	}
}

func TestSplitNDegenerate(t *testing.T) {
	if got := New(1).SplitN(0); got != nil {
		t.Fatalf("SplitN(0) = %v, want nil", got)
	}
	if got := New(1).SplitN(-3); got != nil {
		t.Fatalf("SplitN(-3) = %v, want nil", got)
	}
}

func TestSplitNChildrenPairwiseDistinct(t *testing.T) {
	children := New(5).SplitN(16)
	seen := map[uint64]int{}
	for i, c := range children {
		v := c.Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("children %d and %d share first output %x", j, i, v)
		}
		seen[v] = i
	}
}

func TestSplitChildrenDiffer(t *testing.T) {
	p1 := New(7)
	p2 := New(7)
	c0 := p1.Split(0)
	c1 := p2.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c0.Uint64() == c1.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams overlapped on %d of 100 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expected %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(9)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(10)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, rate)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	s := New(14)
	check := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%40) + 1
		m := int(mRaw % 45)
		out := s.SampleWithoutReplacement(n, m)
		wantLen := m
		if m > n {
			wantLen = n
		}
		if m <= 0 {
			return out == nil
		}
		if len(out) != wantLen {
			return false
		}
		for i, v := range out {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && out[i-1] >= v {
				return false // must be strictly increasing (sorted, distinct)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each element of [0,5) should appear in a size-2 sample with
	// probability 2/5.
	s := New(15)
	const n, m, trials = 5, 2, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleWithoutReplacement(n, m) {
			counts[v]++
		}
	}
	want := float64(trials) * m / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("element %d appeared %d times, want ~%v", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(16)
	const trials = 200000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1000)
	}
}

func TestMarkDrawsSince(t *testing.T) {
	s := New(42)
	m := s.Mark()
	if got := s.DrawsSince(m); got != 0 {
		t.Fatalf("fresh mark reports %d draws", got)
	}
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	if got := s.DrawsSince(m); got != 1000 {
		t.Fatalf("DrawsSince = %d after 1000 draws", got)
	}
	// Derived draws (Intn may reject, Float64 draws once) are still counted
	// exactly: the arithmetic recovers raw outputs, not call counts.
	m2 := s.Mark()
	s.Float64()
	if got := s.DrawsSince(m2); got != 1 {
		t.Fatalf("Float64 consumed %d raw draws, want 1", got)
	}
	m3 := s.Mark()
	s.Split(7)
	if got := s.DrawsSince(m3); got != 1 {
		t.Fatalf("Split consumed %d raw draws, want 1", got)
	}
}

func TestUint64sMatchesSequentialDraws(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		a, b := New(99), New(99)
		want := make([]uint64, n)
		for i := range want {
			want[i] = a.Uint64()
		}
		got := make([]uint64, n)
		b.Uint64s(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Uint64s[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
		// Both streams must be at the same position afterwards.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: streams diverge after batch fill", n)
		}
	}
}

func TestUint64sDrawAccounting(t *testing.T) {
	s := New(7)
	m := s.Mark()
	buf := make([]uint64, 321)
	s.Uint64s(buf)
	if got := s.DrawsSince(m); got != 321 {
		t.Fatalf("batch of 321 counted as %d draws", got)
	}
	s.Uint64s(nil)
	s.Uint64s(buf[:0])
	if got := s.DrawsSince(m); got != 321 {
		t.Fatalf("empty batch fills consumed draws: %d", got)
	}
}

func BenchmarkUint64sBatch(b *testing.B) {
	s := New(1)
	buf := make([]uint64, 1024)
	b.SetBytes(int64(len(buf) * 8))
	for i := 0; i < b.N; i++ {
		s.Uint64s(buf)
	}
}
