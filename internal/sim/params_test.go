package sim

import (
	"bytes"
	"strings"
	"testing"
)

func renderString(t *testing.T, tbl *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// An explicit override equal to the built-in grid must be byte-identical
// to the default run: the override machinery only selects cells.
func TestParamsExplicitDefaultGridIsIdentical(t *testing.T) {
	base := Config{Seed: 3, Scale: Quick}
	ref, err := E1DisjScalingN(base)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.Params = Params{Ns: []int{256, 1024}} // E1's quick grid
	got, err := E1DisjScalingN(over)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderString(t, ref), renderString(t, got); a != b {
		t.Errorf("explicit default grid diverged:\n%s---\n%s", a, b)
	}
}

func TestParamsOverrideSelectsCells(t *testing.T) {
	cfg := Config{Seed: 3, Scale: Quick, Params: Params{Ns: []int{512}}}
	tbl, err := E1DisjScalingN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 || tbl.Rows[0][0] != "512" {
		t.Fatalf("E1 override rows = %v", tbl.Rows)
	}

	k2, err := E2DisjScalingK(Config{Seed: 3, Scale: Quick, Params: Params{Ks: []int{4, 16}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(k2.Rows) != 2 || k2.Rows[0][0] != "4" || k2.Rows[1][0] != "16" {
		t.Fatalf("E2 override rows = %v", k2.Rows)
	}
}

// Overridden sweeps stay deterministic (same output for the same Params
// and seed, at any worker count) — the contract the result cache relies on.
func TestParamsOverrideDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Scale: Quick, Params: Params{
		Ns: []int{128}, Ks: []int{4}, Faults: "drop=0.1,corrupt=0.02",
	}}
	first, err := E20NetworkedOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	second, err := E20NetworkedOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderString(t, first), renderString(t, second)
	if a != b {
		t.Errorf("E20 override not worker-invariant:\n%s---\n%s", a, b)
	}
	if !strings.Contains(a, "n=128, k=4") {
		t.Errorf("E20 did not honor n/k override:\n%s", a)
	}
	if len(first.Rows) != 2 || first.Rows[0][0] != "none" || first.Rows[1][0] != "drop=0.1,corrupt=0.02" {
		t.Errorf("E20 fault override rows = %v", first.Rows)
	}
}

func TestParamsZeroAndCaps(t *testing.T) {
	if !(Params{}).Zero() {
		t.Error("zero Params not Zero()")
	}
	if (Params{Faults: "drop=0.1"}).Zero() {
		t.Error("fault override reported Zero()")
	}
	if c := Caps("E1"); !c.Ns || c.Ks || c.Faults {
		t.Errorf("Caps(E1) = %+v", c)
	}
	if c := Caps("E20"); !c.Ns || !c.Ks || !c.Faults {
		t.Errorf("Caps(E20) = %+v", c)
	}
	if c := Caps("E14"); c.Ns || c.Ks || c.Faults {
		t.Errorf("Caps(E14) = %+v", c)
	}
}

// Zero reports whether p requests no override at all.
func (p Params) Zero() bool {
	return len(p.Ns) == 0 && len(p.Ks) == 0 && p.Faults == ""
}
