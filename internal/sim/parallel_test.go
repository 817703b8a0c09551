package sim

import (
	"runtime"
	"strings"
	"testing"

	"broadcastic/internal/andk/andktest"
	"broadcastic/internal/core/coretest"
	"broadcastic/internal/dist"
	"broadcastic/internal/rng"
)

// renderAt runs an experiment at the given worker count and returns the
// rendered table bytes.
func renderAt(t *testing.T, f func(Config) (*Table, error), workers int) string {
	t.Helper()
	cfg := Config{Seed: 7, Scale: Quick, Workers: workers}
	tbl, err := f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestSerialEquivalence is the engine's core guarantee: a representative
// subset of experiments must render byte-identical tables at Workers=1,
// Workers=4 and Workers=GOMAXPROCS. E1 covers the plain one-row-per-cell
// sweep, E4 the multi-phase sweep with a serial fit row and a nested
// sharded estimator, E10 a shared-distribution sweep over the sampler.
func TestSerialEquivalence(t *testing.T) {
	experiments := []struct {
		id string
		f  func(Config) (*Table, error)
	}{
		{"E1", E1DisjScalingN},
		{"E4", E4AndInfoCost},
		{"E10", E10RejectionSampler},
	}
	for _, e := range experiments {
		serial := renderAt(t, e.f, 1)
		if len(serial) == 0 {
			t.Fatalf("%s: empty serial render", e.id)
		}
		for _, workers := range []int{4, runtime.GOMAXPROCS(0), 0} {
			if got := renderAt(t, e.f, workers); got != serial {
				t.Fatalf("%s: workers=%d render differs from serial:\n--- serial ---\n%s--- workers=%d ---\n%s",
					e.id, workers, serial, workers, got)
			}
		}
	}
}

// TestIRTableEquivalence pins the compiled-IR engine's sim-facing
// contract: experiments that route through the IR fast path must render
// byte-identical tables with it disabled (-noir), at both serial and
// parallel worker counts.
func TestIRTableEquivalence(t *testing.T) {
	render := func(f func(Config) (*Table, error), disable bool, workers int) string {
		t.Helper()
		tbl, err := f(Config{Seed: 7, Scale: Quick, Workers: workers, DisableIR: disable})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	experiments := []struct {
		id string
		f  func(Config) (*Table, error)
	}{
		{"E4", E4AndInfoCost},
		{"E7", E7InfoCommGap},
	}
	for _, e := range experiments {
		for _, workers := range []int{1, 4} {
			compiled := render(e.f, false, workers)
			dynamic := render(e.f, true, workers)
			if compiled != dynamic {
				t.Fatalf("%s: workers=%d compiled render differs from dynamic:\n--- compiled ---\n%s--- dynamic ---\n%s",
					e.id, workers, compiled, dynamic)
			}
		}
	}
}

// TestE6CountMatchesProtocolRuns pins E6's zero-index error count against
// running the truncated protocol itself on every sampled input and
// comparing its output with AND, from the same stream.
func TestE6CountMatchesProtocolRuns(t *testing.T) {
	const k, trials = 64, 3000
	d, err := dist.NewLemma6Dist(k, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 16, 63, 64} {
		tr, err := andktest.NewTruncated(k, m)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(5)
		want := 0
		for i := 0; i < trials; i++ {
			x := make([]int, k)
			for j := range x {
				x[j] = 1
			}
			if z := d.SampleZero(src); z >= 0 {
				x[z] = 0
			}
			_, leaf, err := coretest.SampleTranscript(tr, x, rng.New(0))
			if err != nil {
				t.Fatal(err)
			}
			if leaf.Output != coretest.AndFunc(x) {
				want++
			}
		}
		if got := e6Wrong(d, rng.New(5), m, trials); got != want {
			t.Fatalf("m=%d: counted %d errors, protocol runs err %d times", m, got, want)
		}
		if m < k && want == 0 {
			t.Fatalf("m=%d: fixture never errs", m)
		}
	}
}

// TestAllWorkerCountInvariance renders the full suite at 1 and 4 workers;
// every one of the twenty-one tables must match byte for byte.
func TestAllWorkerCountInvariance(t *testing.T) {
	render := func(workers int) []string {
		tables, err := All(Config{Seed: 7, Scale: Quick, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(tables))
		for i, tbl := range tables {
			var sb strings.Builder
			if err := tbl.Render(&sb); err != nil {
				t.Fatal(err)
			}
			out[i] = sb.String()
		}
		return out
	}
	serial := render(1)
	parallel := render(4)
	if len(serial) != 21 || len(parallel) != 21 {
		t.Fatalf("suite sizes %d/%d, want 21", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("table %d differs between 1 and 4 workers:\n--- serial ---\n%s--- parallel ---\n%s",
				i, serial[i], parallel[i])
		}
	}
}

func TestAddRow(t *testing.T) {
	tbl := &Table{ID: "T", Title: "t", Header: []string{"a", "b"}}
	if len(tbl.Rows) != 0 {
		t.Fatalf("fresh table has %d rows", len(tbl.Rows))
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("3", "4")
	if len(tbl.Rows) != 2 {
		t.Fatalf("after two AddRow calls: %d rows", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "1" || tbl.Rows[0][1] != "2" || tbl.Rows[1][0] != "3" || tbl.Rows[1][1] != "4" {
		t.Fatalf("rows stored out of order or corrupted: %v", tbl.Rows)
	}
	// AddRow validates nothing — mismatched widths are deferred to Render.
	tbl.AddRow("lonely")
	if len(tbl.Rows) != 3 {
		t.Fatal("mismatched row not stored")
	}
}

func TestRenderMismatchedCellCount(t *testing.T) {
	tbl := &Table{ID: "X", Title: "x", Header: []string{"a", "b", "c"}}
	tbl.AddRow("1", "2", "3")
	tbl.AddRow("1", "2") // short row
	var sb strings.Builder
	err := tbl.Render(&sb)
	if err == nil {
		t.Fatal("mismatched cell count rendered without error")
	}
	if !strings.Contains(err.Error(), "2 cells") || !strings.Contains(err.Error(), "3") {
		t.Fatalf("error %q does not name the mismatched counts", err)
	}
}
