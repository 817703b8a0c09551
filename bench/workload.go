package main

import (
	"math/rand/v2"

	"broadcastic/internal/jobs"
)

// request is one submission the load generator makes: who sends it and
// what it asks for.
type request struct {
	tenant string
	spec   jobs.JobSpec
}

const (
	// seedStride separates the spec seeds of different workload seeds:
	// spec seeds are seed·seedStride + counter, and no run reaches a
	// million submissions, so a cold spec is never repeated.
	seedStride = 1_000_000

	// fixtureSize is the number of distinct specs in the cache_spill
	// fixture. They use counters [0, fixtureSize); every op of every
	// workload uses a counter above them.
	fixtureSize = 2048
	// spillEntries is the cache_spill in-memory LRU capacity, an eighth
	// of the fixture, so Zipf traffic mixes memory hits and disk hits.
	spillEntries = 256
	// daemonCacheEntries is broadcasticd's -cache-entries default.
	daemonCacheEntries = 64
	zipfS              = 1.1
)

// workloads lists the benchmark's workloads in BENCHMARK.json order;
// README.md gives the reason for each.
var workloads = []string{"estimator_cold", "netrun_cold", "cache_spill"}

// kind is one class of request in a workload's mix: its share of the
// ops and the spec of the op with counter j, drawing from r.
type kind struct {
	share float64
	spec  func(seed, j uint64, r *rand.Rand) jobs.JobSpec
}

func coldKind(share float64, exp string) kind {
	return kind{share, func(seed, j uint64, _ *rand.Rand) jobs.JobSpec { return quickSpec(exp, seed, j) }}
}

// mixes gives each workload's request kinds; the shares sum to 1.
var mixes = map[string][]kind{
	"estimator_cold": {coldKind(0.7, "E4"), coldKind(0.3, "E6")},
	"netrun_cold": {
		{0.5, func(seed, j uint64, _ *rand.Rand) jobs.JobSpec {
			s := quickSpec("E20", seed, j)
			s.Ns, s.Ks, s.Faults = []int{64}, []int{4}, "drop=0.05,dup=0.05"
			return s
		}},
		coldKind(0.5, "E21"),
	},
	"cache_spill": {
		// A Zipf pick from the fixture: a memory hit or a disk hit.
		{0.95, func(seed, _ uint64, r *rand.Rand) jobs.JobSpec {
			return fixtureSpec(seed, rand.NewZipf(r, zipfS, 1, fixtureSize-1).Uint64())
		}},
		// A fresh spec: a cold run and a write-through.
		{0.05, func(seed, j uint64, _ *rand.Rand) jobs.JobSpec { return fixtureSpec(seed, j) }},
	},
}

// opRand is the random stream of counter j under seed: every spec is a
// pure function of (seed, counter), whichever client ends up sending it.
func opRand(seed, j uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, j))
}

func quickSpec(exp string, seed, counter uint64) jobs.JobSpec {
	// Workers 1: the job fleet is the only parallelism.
	return jobs.JobSpec{Experiment: exp, Seed: seed*seedStride + counter, Scale: "quick", Workers: 1}
}

// closedRequest returns the request with counter j of a workload. The
// clients alternate between two tenants.
func closedRequest(workload string, seed, j uint64) request {
	r := opRand(seed, j)
	mix := mixes[workload]
	k, u := mix[len(mix)-1], r.Float64()
	for _, m := range mix {
		if u < m.share {
			k = m
			break
		}
		u -= m.share
	}
	return request{tenant: tenant(j), spec: k.spec(seed, j, r)}
}

// setupRequests returns one request of each kind in a workload's mix,
// with counters from j on: the first results a freshly started service
// serves.
func setupRequests(workload string, seed, j uint64) []request {
	var out []request
	for i, k := range mixes[workload] {
		c := j + uint64(i)
		out = append(out, request{tenant: tenant(c), spec: k.spec(seed, c, opRand(seed, c))})
	}
	return out
}

func tenant(j uint64) string {
	if j%2 == 1 {
		return "interactive-b"
	}
	return "interactive-a"
}

// fixtureSpec is a cheap quick-scale spec (E8, E9, E12 or E18, ~0.3–0.7 KB
// of result), used for the cache_spill fixture and its fresh ops. The
// experiment follows the counter, not the seed, so the Zipf-hot keys cost
// the same under every seed.
func fixtureSpec(seed, counter uint64) jobs.JobSpec {
	exps := [...]string{"E8", "E9", "E12", "E18"}
	return quickSpec(exps[counter%uint64(len(exps))], seed, counter)
}

// fixtureSpecs is the cache_spill fixture: fixtureSize distinct specs.
func fixtureSpecs(seed uint64) []jobs.JobSpec {
	specs := make([]jobs.JobSpec, fixtureSize)
	for i := range specs {
		specs[i] = fixtureSpec(seed, uint64(i))
	}
	return specs
}
