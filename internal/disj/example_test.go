package disj_test

import (
	"fmt"
	"log"

	"broadcastic/internal/bitvec"
	"broadcastic/internal/disj"
	"broadcastic/internal/encoding"
	"broadcastic/internal/rng"
)

// Build a k-party set-disjointness instance, run the optimal
// O(n log k + k) broadcast protocol of Section 5, and compare its exact
// communication against the naive protocol and the paper's cost model.
func Example_quickstart() {
	const (
		n    = 8192 // universe size
		k    = 8    // players
		seed = 42
	)
	src := rng.New(seed)

	// A disjoint instance from the paper's hard distribution μ^n: every
	// coordinate has a "special" player that misses it, and each other
	// player misses it with probability 1/k.
	inst, err := disj.GenerateFromMuN(src, n, k)
	if err != nil {
		log.Fatal(err)
	}

	truth, err := inst.Disjoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: n=%d elements, k=%d players, disjoint=%v\n\n", n, k, truth)

	opt, err := disj.SolveOptimal(inst)
	if err != nil {
		log.Fatal(err)
	}
	naive, err := disj.SolveNaive(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal protocol (Section 5): answer=%v, %d bits in %d messages\n",
		opt.Disjoint, opt.Bits, opt.Messages)
	fmt.Printf("naive protocol (introduction): answer=%v, %d bits in %d messages\n\n",
		naive.Disjoint, naive.Bits, naive.Messages)

	fmt.Printf("cost models: n·log2(k)+k = %.0f, n·log2(n)+k = %d\n",
		disj.OptimalCostModel(n, k), n*encoding.FixedWidth(n)+k)
	fmt.Printf("optimal/model = %.3f, naive/optimal = %.2f×\n",
		float64(opt.Bits)/disj.OptimalCostModel(n, k),
		float64(naive.Bits)/float64(opt.Bits))
	// Output:
	// instance: n=8192 elements, k=8 players, disjoint=true
	//
	// optimal protocol (Section 5): answer=true, 35645 bits in 47 messages
	// naive protocol (introduction): answer=true, 106660 bits in 8 messages
	//
	// cost models: n·log2(k)+k = 24584, n·log2(n)+k = 106504
	// optimal/model = 1.450, naive/optimal = 2.99×
}

// Multi-party set disjointness is the canonical source of streaming lower
// bounds (Alon–Matias–Szegedy). This example plays the reduction forward:
// k shards of a distributed log each hold the set of user IDs they saw,
// and an aggregator must decide whether some user appears in every shard
// (a "hot" user that any exact frequency-moment sketch would have to
// account for). That is exactly non-disjointness of the shard sets, and
// the communication the shards exchange is bounded below by the paper's
// Ω(n log k + k); the example measures how close the Section 5 protocol
// gets.
func Example_streaming() {
	const (
		userSpace = 16384 // distinct user IDs
		numShards = 32
		seed      = 99
	)
	src := rng.New(seed)

	// Shards see heavy local traffic; with probability 1/2 we also plant
	// one globally hot user into every shard.
	sets := make([]*bitvec.Vector, numShards)
	for i := range sets {
		v, err := bitvec.New(userSpace)
		if err != nil {
			log.Fatal(err)
		}
		for u := 0; u < userSpace; u++ {
			if src.Bernoulli(0.6) {
				if err := v.Set(u); err != nil {
					log.Fatal(err)
				}
			}
		}
		sets[i] = v
	}
	planted := src.Uint64()&1 == 1
	if planted {
		hot := src.Intn(userSpace)
		for _, v := range sets {
			if err := v.Set(hot); err != nil {
				log.Fatal(err)
			}
		}
	}

	inst, err := disj.NewInstance(userSpace, sets)
	if err != nil {
		log.Fatal(err)
	}
	out, err := disj.SolveOptimal(inst)
	if err != nil {
		log.Fatal(err)
	}
	hot, common, err := bitvec.IntersectsAll(inst.Sets)
	if err != nil {
		log.Fatal(err)
	}
	if out.Disjoint == common {
		log.Fatal("protocol disagreed with ground truth")
	}

	fmt.Printf("distributed log: %d shards over %d user IDs (hot user planted: %v)\n",
		numShards, userSpace, planted)
	if out.Disjoint {
		fmt.Println("verdict: no user appears in every shard")
	} else {
		fmt.Printf("verdict: globally hot user exists (e.g. id %d)\n", hot)
	}
	fmt.Printf("communication: %d bits in %d messages\n", out.Bits, out.Messages)
	fmt.Printf("paper lower bound scale n·log2(k)+k: %.0f bits (ratio %.3f)\n",
		disj.OptimalCostModel(userSpace, numShards),
		float64(out.Bits)/disj.OptimalCostModel(userSpace, numShards))
	fmt.Println()
	fmt.Println("Interpretation for streaming: any one-pass exact algorithm whose")
	fmt.Println("state is s bits yields a k-party protocol with ~k·s bits, so the")
	fmt.Printf("Ω(n log k) bound forces s = Ω(n log k / k) ≈ %.0f bits of state here.\n",
		disj.OptimalCostModel(userSpace, numShards)/float64(numShards))
	// Output:
	// distributed log: 32 shards over 16384 user IDs (hot user planted: true)
	// verdict: globally hot user exists (e.g. id 541)
	// communication: 105032 bits in 96 messages
	// paper lower bound scale n·log2(k)+k: 81952 bits (ratio 1.282)
	//
	// Interpretation for streaming: any one-pass exact algorithm whose
	// state is s bits yields a k-party protocol with ~k·s bits, so the
	// Ω(n log k) bound forces s = Ω(n log k / k) ≈ 2561 bits of state here.
}
