package sim

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"broadcastic/internal/pool"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "T1",
		Title:  "demo",
		Note:   "a note",
		Header: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T1", "demo", "a note", "bb"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	bad := &Table{ID: "X", Title: "x", Header: []string{"a"}}
	bad.AddRow("1", "2")
	if err := bad.Render(&sb); err == nil {
		t.Fatal("mismatched row rendered")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if math.Abs(s.Mean-2) > 1e-12 || s.N != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.StdErr <= 0 {
		t.Fatal("stderr not positive for varying data")
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty Summarize = %+v", empty)
	}
	one := Summarize([]float64{5})
	if one.StdErr != 0 {
		t.Fatal("single sample has nonzero stderr")
	}
}

func TestF(t *testing.T) {
	if F(math.Inf(1)) != "inf" || F(math.Inf(-1)) != "-inf" || F(math.NaN()) != "nan" {
		t.Fatal("special values misrendered")
	}
	if F(1.5) != "1.500" {
		t.Fatalf("F(1.5) = %s", F(1.5))
	}
	if !strings.Contains(F(0.00001), "e") {
		t.Fatalf("tiny value not scientific: %s", F(0.00001))
	}
	if !strings.Contains(F(1e7), "e") {
		t.Fatalf("huge value not scientific: %s", F(1e7))
	}
}

func TestFitSlope(t *testing.T) {
	slope, icept, err := FitSlope([]float64{0, 1, 2}, []float64{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-12 || math.Abs(icept-1) > 1e-12 {
		t.Fatalf("fit = %v, %v", slope, icept)
	}
	if _, _, err := FitSlope([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point succeeded")
	}
	if _, _, err := FitSlope([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("degenerate x succeeded")
	}
	if _, _, err := FitSlope([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch succeeded")
	}
}

func quickCfg() Config { return Config{Seed: 7, Scale: Quick} }

func TestInvalidScale(t *testing.T) {
	if _, err := E1DisjScalingN(Config{Seed: 1}); err == nil {
		t.Fatal("zero scale succeeded")
	}
}

func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tbl, err := E1DisjScalingN(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatal("too few rows")
	}
	// The normalized cost column must stay within a constant band.
	for r := range tbl.Rows {
		ratio := cell(t, tbl, r, 2)
		if ratio <= 0 || ratio > 5 {
			t.Fatalf("row %d normalized cost %v out of band", r, ratio)
		}
	}
}

func TestE2Shape(t *testing.T) {
	tbl, err := E2DisjScalingK(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		if ratio := cell(t, tbl, r, 2); ratio <= 0 || ratio > 5 {
			t.Fatalf("row %d normalized cost %v out of band", r, ratio)
		}
	}
}

func TestE3Shape(t *testing.T) {
	tbl, err := E3NaiveVsOptimal(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		if win := cell(t, tbl, r, 4); win <= 1 {
			t.Fatalf("row %d: optimal did not beat naive (ratio %v)", r, win)
		}
	}
}

func TestE4Shape(t *testing.T) {
	tbl, err := E4AndInfoCost(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// CIC strictly increasing over the exact rows (k = 2, 4, 8).
	prev := -1.0
	for r := 0; r < 3; r++ {
		v := cell(t, tbl, r, 2)
		if v <= prev {
			t.Fatalf("CIC not increasing at row %d: %v after %v", r, v, prev)
		}
		prev = v
	}
	// Fit row present.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "fit" {
		t.Fatalf("missing fit row: %v", last)
	}
}

func TestE5Shape(t *testing.T) {
	tbl, err := E5DirectSum(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		if ratio := cell(t, tbl, r, 4); math.Abs(ratio-1) > 1e-6 {
			t.Fatalf("direct-sum ratio at row %d = %v, want 1", r, ratio)
		}
	}
}

func TestE6Shape(t *testing.T) {
	tbl, err := E6TruncatedError(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		measured := cell(t, tbl, r, 2)
		predicted := cell(t, tbl, r, 3)
		if math.Abs(measured-predicted) > 0.02 {
			t.Fatalf("row %d: measured %v vs predicted %v", r, measured, predicted)
		}
	}
}

func TestE7Shape(t *testing.T) {
	tbl, err := E7InfoCommGap(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for r := range tbl.Rows {
		gap := cell(t, tbl, r, 5)
		if gap <= prev {
			t.Fatalf("gap not increasing at row %d: %v after %v", r, gap, prev)
		}
		prev = gap
		// Both information measures must respect the entropy upper bound,
		// and external IC dominates conditional IC here.
		cic := cell(t, tbl, r, 2)
		ic := cell(t, tbl, r, 3)
		hBound := cell(t, tbl, r, 4)
		if ic > hBound+0.2 {
			t.Fatalf("row %d: IC %v above H(Π) bound %v", r, ic, hBound)
		}
		if cic > ic+0.2 {
			t.Fatalf("row %d: CIC %v above IC %v", r, cic, ic)
		}
	}
}

func TestE8Shape(t *testing.T) {
	tbl, err := E8GoodTranscripts(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		delta := cell(t, tbl, r, 1)
		pointed := cell(t, tbl, r, 5)
		if pointed < 1-delta-0.05 {
			t.Fatalf("row %d: pointed mass %v below 1-delta=%v", r, pointed, 1-delta)
		}
	}
}

func TestE9Shape(t *testing.T) {
	tbl, err := E9PosteriorPointing(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		if dev := cell(t, tbl, r, 2); dev > 1e-9 {
			t.Fatalf("row %d: Lemma 4 deviation %v", r, dev)
		}
	}
}

func TestE10Shape(t *testing.T) {
	tbl, err := E10RejectionSampler(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		mean := cell(t, tbl, r, 1)
		model := cell(t, tbl, r, 3)
		if mean > model+2 {
			t.Fatalf("row %d: mean bits %v above model %v", r, mean, model)
		}
	}
}

func TestE11Shape(t *testing.T) {
	tbl, err := E11AmortizedCompression(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tbl, 0, 1)
	last := cell(t, tbl, len(tbl.Rows)-1, 1)
	if last >= first {
		t.Fatalf("per-copy cost did not decrease: %v -> %v", first, last)
	}
}

func TestE12Shape(t *testing.T) {
	tbl, err := E12DivergenceBound(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		if margin := cell(t, tbl, r, 4); margin < -1e-12 {
			t.Fatalf("row %d: Eq.(4) margin %v negative", r, margin)
		}
	}
}

func TestE13Shape(t *testing.T) {
	tbl, err := E13SparseIntersection(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for r := range tbl.Rows {
		win := cell(t, tbl, r, 3)
		if win <= prev {
			t.Fatalf("naive/hashed ratio not increasing with n at row %d: %v after %v", r, win, prev)
		}
		prev = win
	}
}

func TestE14Shape(t *testing.T) {
	tbl, err := E14Ablations(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		// Columns: n, k, kind, full, no-batching, nb/full, no-endgame, ne/full.
		if ratio := cell(t, tbl, r, 5); ratio <= 1 {
			t.Fatalf("row %d: no-batching ratio %v not above 1", r, ratio)
		}
		// The endgame is an analysis device: its ablation must stay within a
		// narrow constant band in every regime we measure (the experiment's
		// headline finding).
		if ratio := cell(t, tbl, r, 7); ratio < 0.8 || ratio > 1.5 {
			t.Fatalf("row %d: no-endgame ratio %v outside [0.8, 1.5]", r, ratio)
		}
	}
}

func TestAllQuick(t *testing.T) {
	tables, err := All(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 21 {
		t.Fatalf("All returned %d tables, want 21", len(tables))
	}
	var sb strings.Builder
	for _, tbl := range tables {
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	if len(sb.String()) < 500 {
		t.Fatal("rendered output suspiciously short")
	}
}

func TestE15Shape(t *testing.T) {
	tbl, err := E15TwoPartyBaseline(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		lb := cell(t, tbl, r, 1)
		trivial := cell(t, tbl, r, 2)
		if trivial != lb+1 {
			t.Fatalf("row %d: trivial cost %v, want fooling bound %v + 1", r, trivial, lb)
		}
		if ratio := cell(t, tbl, r, 4); ratio < 1 || ratio > 8 {
			t.Fatalf("row %d: broadcast/n ratio %v out of band", r, ratio)
		}
	}
}

func TestE16Shape(t *testing.T) {
	tbl, err := E16CostBreakdown(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		total := cell(t, tbl, r, 2)
		sum := cell(t, tbl, r, 3) + cell(t, tbl, r, 4) + cell(t, tbl, r, 5)
		if math.Abs(total-sum) > 1e-6 {
			t.Fatalf("row %d: breakdown %v != total %v", r, sum, total)
		}
		k, err := strconv.Atoi(tbl.Rows[r][1])
		if err != nil {
			t.Fatal(err)
		}
		// Amortized per-coordinate cost must be near log2(e·k):
		// within [log2 k, 2·log2(e·k)].
		perCoord := cell(t, tbl, r, 7)
		model := math.Log2(math.E * float64(k))
		if perCoord < math.Log2(float64(k))-0.5 || perCoord > 2*model {
			t.Fatalf("row %d: per-coordinate cost %v far from log2(e·k)=%v", r, perCoord, model)
		}
	}
}

func TestE17Shape(t *testing.T) {
	tbl, err := E17PointwiseOr(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		bits := cell(t, tbl, r, 2)
		lb := cell(t, tbl, r, 3)
		naive := cell(t, tbl, r, 5)
		if bits < lb {
			t.Fatalf("row %d: bits %v below the information bound %v", r, bits, lb)
		}
		if bits >= naive {
			t.Fatalf("row %d: bits %v not below naive %v", r, bits, naive)
		}
	}
}

func TestE18Shape(t *testing.T) {
	tbl, err := E18InternalVsExternal(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	sawStrictGap := false
	for r := range tbl.Rows {
		ratio := cell(t, tbl, r, 4)
		if ratio > 1+1e-9 {
			t.Fatalf("row %d: internal/external ratio %v above 1", r, ratio)
		}
		if ratio < 1-1e-6 {
			sawStrictGap = true
		}
	}
	if !sawStrictGap {
		t.Fatal("no strict internal < external gap observed anywhere")
	}
}

func TestE20Shape(t *testing.T) {
	tbl, err := E20NetworkedOverhead(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: faults, board bits, wire bits, wire/board, retries, injected.
	if tbl.Rows[0][0] != "none" {
		t.Fatalf("first row faults %q, want none", tbl.Rows[0][0])
	}
	baseWire := cell(t, tbl, 0, 2)
	if ratio := cell(t, tbl, 0, 3); ratio <= 1 {
		t.Fatalf("fault-free framing overhead %v not above 1", ratio)
	}
	if retries := cell(t, tbl, 0, 4); retries != 0 {
		t.Fatalf("fault-free run spent %v retries", retries)
	}
	for r := 1; r < len(tbl.Rows); r++ {
		// Board bits are invariant across fault mixes; wire bits exceed the
		// fault-free baseline.
		if tbl.Rows[r][1] != tbl.Rows[0][1] {
			t.Fatalf("row %d: board bits %s differ from fault-free %s", r, tbl.Rows[r][1], tbl.Rows[0][1])
		}
		if wire := cell(t, tbl, r, 2); wire <= baseWire {
			t.Fatalf("row %d (%s): wire bits %v not above fault-free %v", r, tbl.Rows[r][0], wire, baseWire)
		}
	}
}

func TestE21Shape(t *testing.T) {
	tbl, err := E21TopologySeparation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: n, k, bcast bits, coord bits, coord/bcast, bcast/(n·log2k+k),
	// coord/(n·k), coord wire bits. Quick rows share one n and ascend in k.
	if len(tbl.Rows) < 2 {
		t.Fatal("too few rows")
	}
	prev := 0.0
	for r := range tbl.Rows {
		// The exact coordinator protocol meets its Θ(n·k) model exactly.
		if ratio := cell(t, tbl, r, 6); math.Abs(ratio-1) > 1e-9 {
			t.Fatalf("row %d: coord/(n·k) = %v, want exactly 1", r, ratio)
		}
		// Broadcast cost stays within a constant band of n·log2k + k.
		if ratio := cell(t, tbl, r, 5); ratio <= 0 || ratio > 5 {
			t.Fatalf("row %d: bcast normalized cost %v out of band", r, ratio)
		}
		// The separation is the headline: coord/bcast must grow with k,
		// since n·k outpaces n·log k.
		sep := cell(t, tbl, r, 4)
		if sep <= prev {
			t.Fatalf("row %d: coord/bcast %v not above previous %v", r, sep, prev)
		}
		prev = sep
		// Wire bits carry framing on top of the board-level payload.
		if cell(t, tbl, r, 7) <= cell(t, tbl, r, 3) {
			t.Fatalf("row %d: wire bits do not exceed board bits", r)
		}
	}
}

func TestE19Shape(t *testing.T) {
	tbl, err := E19WirelessContention(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: n, k, kind, polled, contention, collisions, ratio.
	for r := range tbl.Rows {
		if cell(t, tbl, r, 3) <= 0 || cell(t, tbl, r, 4) <= 0 {
			t.Fatalf("row %d: zero slot counts", r)
		}
	}
	// The skew row must favor contention.
	last := len(tbl.Rows) - 1
	if tbl.Rows[last][2] != "skew" {
		t.Fatalf("last quick row kind %q, want skew", tbl.Rows[last][2])
	}
	if ratio := cell(t, tbl, last, 6); ratio >= 1 {
		t.Fatalf("skew contention/polled ratio %v not below 1", ratio)
	}
}

// All runs every experiment and returns the tables in E1..E21 order. The
// experiments themselves run concurrently on the configured worker pool
// (each one also parallelizes its own sweep); every experiment seeds its
// randomness independently from cfg.Seed, so the tables are identical to a
// serial run.
func All(cfg Config) ([]*Table, error) {
	exps := Experiments()
	return pool.Map(cfg.workers(), len(exps), func(i int) (*Table, error) {
		return exps[i].Run(cfg)
	})
}

// TestRegistryLookups pins the registry's three readers: ParseScale takes
// the two scale names, Lookup matches IDs exactly (the job service's cache
// keys depend on one spelling), and Select — the -only parser both
// binaries share — folds case and spaces but keeps the order given.
func TestRegistryLookups(t *testing.T) {
	for name, want := range map[string]Scale{"quick": Quick, "full": Full} {
		if got, err := ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScale("medium"); err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Errorf("ParseScale(medium) error = %v", err)
	}
	if exp, ok := Lookup("E4"); !ok || exp.ID != "E4" {
		t.Errorf("Lookup(E4) = %v, %v", exp.ID, ok)
	}
	for _, id := range []string{"e4", " E4", "E99", ""} {
		if _, ok := Lookup(id); ok {
			t.Errorf("Lookup(%q) matched", id)
		}
	}
	sel, err := Select("e7, E4")
	if err != nil || len(sel) != 2 || sel[0].ID != "E7" || sel[1].ID != "E4" {
		t.Errorf("Select(e7, E4) = %v, %v", sel, err)
	}
	if all, err := Select(""); err != nil || len(all) != len(Experiments()) {
		t.Errorf("Select(\"\") = %d experiments, %v", len(all), err)
	}
	if _, err := Select("E1,E99"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("Select(E1,E99) error = %v", err)
	}
}
