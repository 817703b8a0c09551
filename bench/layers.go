package main

import (
	"math"
	"sort"
)

// Layers of one op, top to bottom. A layer's exclusive time is the part
// of its spans' union that no lower layer's span covers, so every instant
// of an op is attributed to the deepest layer working at that instant.
// The three estimator engines share the core level and never overlap
// within one trace (a job's shards run one after another).
const (
	layerHTTP = iota
	layerServe
	layerQueue
	layerJobs
	layerSim
	layerCoreIR
	layerCoreLanes
	layerCoreScalar
	layerNetrun
	numLayers
)

// interval is a half-open time span [start, end) in nanoseconds on the
// flight recorder's clock.
type interval struct {
	start, end int64
}

// exclusiveTimes attributes the union of the given per-layer intervals to
// layers: each instant goes to the highest-numbered layer that covers it.
// The sum of the result equals the length of the union of all intervals.
func exclusiveTimes(byLayer *[numLayers][]interval) [numLayers]int64 {
	type edge struct {
		at    int64
		layer int
		delta int
	}
	var edges []edge
	for l, ivs := range byLayer {
		for _, iv := range ivs {
			if iv.end > iv.start {
				edges = append(edges, edge{iv.start, l, +1}, edge{iv.end, l, -1})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var out [numLayers]int64
	var open [numLayers]int
	for i, e := range edges {
		if i > 0 && e.at > edges[i-1].at {
			for l := numLayers - 1; l >= 0; l-- {
				if open[l] > 0 {
					out[l] += e.at - edges[i-1].at
					break
				}
			}
		}
		open[e.layer] += e.delta
	}
	return out
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile reports quantile q of xs by nearest rank, lowered where
// needed so that at least minTail samples lie above it: the highest
// percentile the sample supports. It returns the value and the quantile
// actually reported; with fewer than minTail+1 samples it reports the
// minimum. xs is sorted in place. An empty sample reports (0, 0).
func percentile(xs []float64, q float64) (value, reported float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	// The epsilon keeps q·n that rounds just above an integer on that rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank > n-minTail {
		rank = n - minTail
	}
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], float64(rank) / float64(n)
}

// median is percentile(xs, 0.5) without the tail rule, for small samples
// of run-level values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
