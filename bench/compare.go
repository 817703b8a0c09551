package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// runSet maps workload -> metric -> the values of a set of runs.
type runSet map[string]map[string][]float64

// readRuns collects the full-report lines of a file of run outputs; other
// lines, such as the result lines, are skipped.
func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r struct {
			Workload string                    `json:"workload"`
			Metrics  map[string]reportedMetric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" {
			continue
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict judges one end-to-end metric of set B against set A. A median
// worse by more than the bound, or a set without the metric, is a
// regression. Where either set's spread is wider than the bound, a smaller
// change cannot be told from noise: the metric is unresolved, unless every
// run of B reads better than every run of A.
func verdict(m benchMetric, va, vb []float64) (v string, regressed bool) {
	if len(va) == 0 || len(vb) == 0 {
		return "missing", true
	}
	bound := *m.Bound
	worse := ratio(median(vb)-median(va), median(va))
	bBetter := slices.Max(vb) < slices.Min(va)
	if m.Better == "higher" {
		worse = -worse
		bBetter = slices.Min(vb) > slices.Max(va)
	}
	switch {
	case worse > bound:
		return "WORSE", true
	case (spread(va) > bound || spread(vb) > bound) && !bBetter:
		return "unresolved", false
	}
	return "ok", false
}

// runCompare prints one row per workload and metric of two sets of runs
// and reports whether any end-to-end metric regressed (see verdict).
func runCompare(aPath, bPath, benchPath string, w io.Writer) (bool, error) {
	bench, err := readBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return false, err
	}
	var names []string
	for w := range a {
		names = append(names, w)
	}
	for w := range b {
		if a[w] == nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tmedian A\tspread A\tmedian B\tspread B\tchange\tbound\tverdict")
	regressed := false
	for _, wl := range names {
		for _, m := range append(append([]benchMetric(nil), bench.EndToEnd...), bench.PerLayer...) {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma)
			v, bound := "-", "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", 100**m.Bound)
				var r bool
				v, r = verdict(m, va, vb)
				regressed = regressed || r
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4g\t%.1f%%\t%.4g\t%.1f%%\t%+.1f%%\t%s\t%s\n",
				wl, m.Name, m.Unit, len(va), len(vb), ma, 100*spread(va), mb, 100*spread(vb), 100*change, bound, v)
		}
	}
	return regressed, tw.Flush()
}
