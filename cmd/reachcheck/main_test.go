package main

import (
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"broadcastic/internal/core.ExactCosts", "broadcastic/internal/core.ExactCosts"},
		{"broadcastic/internal/ir.Memo[go.shape.*uint8]", "broadcastic/internal/ir.Memo"},
		{"broadcastic/internal/pool.Map[go.shape.[]uint8]", "broadcastic/internal/pool.Map"},
		{"broadcastic/internal/netrun.(*mailbox[go.shape.struct { broadcastic/internal/netrun.kind uint8; broadcastic/internal/netrun.payload []uint8 }]).put",
			"broadcastic/internal/netrun.(*mailbox).put"},
		{"broadcastic/internal/telemetry.multi.Gauge <UsedInIface>", "broadcastic/internal/telemetry.multi.Gauge"},
		{"broadcastic/internal/x.T.M <UsedInIface> <ReflectMethod>", "broadcastic/internal/x.T.M"},
		{"broadcastic/internal/sim.sweep[go.shape.int].func1", "broadcastic/internal/sim.sweep.func1"},
	} {
		if got := normalize(tc.in); got != tc.want {
			t.Errorf("normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// dumpdep holds -dumpdep lines in the shapes both go 1.22 and go 1.24
// linkers print: the go command's package header, root edges from "_",
// flagged type symbols and generic instantiations.
const dumpdep = `# broadcastic/cmd/tool
_ -> _rt0_amd64_linux
_ -> main.main
main.main -> broadcastic/internal/a.Used
main.main -> broadcastic/internal/a.(*T).Ptr
broadcastic/internal/a.Used -> broadcastic/internal/a.Memo[go.shape.*uint8]
broadcastic/internal/a.Used -> type:broadcastic/internal/a.T <UsedInIface>
type:broadcastic/internal/a.T <UsedInIface> -> broadcastic/internal/a.T.Val <UsedInIface>
broadcastic/internal/a.(*T).Ptr -> broadcastic/internal/a.(*box[go.shape.struct { x []uint8 }]).put
`

func TestParseDumpdep(t *testing.T) {
	reached := map[string]bool{}
	parseDumpdep(strings.NewReader(dumpdep), reached)
	for _, sym := range []string{
		"main.main",
		"broadcastic/internal/a.Used",
		"broadcastic/internal/a.(*T).Ptr",
		"broadcastic/internal/a.Memo",
		"broadcastic/internal/a.T.Val",
		"broadcastic/internal/a.(*box).put",
	} {
		if !reached[sym] {
			t.Errorf("%s not reached; have %v", sym, reached)
		}
	}
	if reached["broadcastic/cmd/tool"] || reached["_"] {
		t.Errorf("header or root marker taken as a symbol: %v", reached)
	}
}

const fixtureSrc = `package a

func init() {}

func Used() {}

func Unreached() {}

type T struct{}

func (T) Val() int { return 0 }

func (*T) Ptr() {}

type box[E any] struct{ e E }

func (b *box[E]) put(e E) { b.e = e }

type pair[K comparable, V any] struct{}

func (pair[K, V]) Get() {}

func Memo[V any](v V) V { return v }
`

func TestFileFuncs(t *testing.T) {
	funcs, err := fileFuncs(token.NewFileSet(), "internal/a/a.go", "broadcastic/internal/a", []byte(fixtureSrc))
	if err != nil {
		t.Fatal(err)
	}
	var syms []string
	for _, f := range funcs {
		syms = append(syms, f.Sym)
	}
	want := []string{
		"broadcastic/internal/a.Used",
		"broadcastic/internal/a.Unreached",
		"broadcastic/internal/a.T.Val",
		"broadcastic/internal/a.(*T).Ptr",
		"broadcastic/internal/a.(*box).put",
		"broadcastic/internal/a.pair.Get",
		"broadcastic/internal/a.Memo",
	}
	if !reflect.DeepEqual(syms, want) {
		t.Fatalf("declared %v, want %v", syms, want)
	}
	if funcs[1].Pos != "internal/a/a.go:7" {
		t.Fatalf("Unreached at %s, want internal/a/a.go:7", funcs[1].Pos)
	}

	support := strings.Replace(fixtureSrc, "package a", "package atest", 1)
	funcs, err = fileFuncs(token.NewFileSet(), "internal/a/atest/atest.go", "broadcastic/internal/a/atest", []byte(support))
	if err != nil || len(funcs) != 0 {
		t.Fatalf("test-support package listed %v (err %v), want nothing", funcs, err)
	}
}

func TestCheck(t *testing.T) {
	funcs, err := fileFuncs(token.NewFileSet(), "internal/a/a.go", "broadcastic/internal/a", []byte(fixtureSrc))
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	parseDumpdep(strings.NewReader(dumpdep), reached)
	allow := map[string]string{
		"broadcastic/internal/a.pair.Get":   "an interface requires it",
		"broadcastic/internal/a.Used":       "stale: a main reaches it",
		"broadcastic/internal/a.Deleted":    "stale: no such function",
		"broadcastic/internal/a.(*box).put": "stale: reached through its instantiation",
	}
	unreached, stale := check(funcs, reached, allow)
	if len(unreached) != 1 || unreached[0].Sym != "broadcastic/internal/a.Unreached" {
		t.Fatalf("unreached %v, want only a.Unreached", unreached)
	}
	wantStale := []string{
		"broadcastic/internal/a.(*box).put (reached)",
		"broadcastic/internal/a.Deleted (no such function)",
		"broadcastic/internal/a.Used (reached)",
	}
	if !reflect.DeepEqual(stale, wantStale) {
		t.Fatalf("stale %v, want %v", stale, wantStale)
	}

	delete(allow, "broadcastic/internal/a.Used")
	delete(allow, "broadcastic/internal/a.Deleted")
	delete(allow, "broadcastic/internal/a.(*box).put")
	allow["broadcastic/internal/a.Unreached"] = "tests in another package read it"
	if unreached, stale := check(funcs, reached, allow); len(unreached) != 0 || len(stale) != 0 {
		t.Fatalf("clean fixture: unreached %v, stale %v", unreached, stale)
	}
}

// mainsList is go list output in mainsFormat: blank lines for libraries, and
// mains with in-package tests, external tests, both, or none.
const mainsList = `
broadcastic/cmd/tool 1 0

broadcastic/cmd/xtool 0 2
broadcastic/cmd/both 1 1
broadcastic/examples/demo 0 0
`

func TestParseMains(t *testing.T) {
	mains, untested, err := parseMains(mainsList)
	if err != nil {
		t.Fatal(err)
	}
	wantMains := []string{"broadcastic/cmd/tool", "broadcastic/cmd/xtool", "broadcastic/cmd/both", "broadcastic/examples/demo"}
	if !reflect.DeepEqual(mains, wantMains) {
		t.Fatalf("mains %v, want %v", mains, wantMains)
	}
	if !reflect.DeepEqual(untested, []string{"broadcastic/examples/demo"}) {
		t.Fatalf("untested %v, want only examples/demo", untested)
	}
	if _, untested, err := parseMains("broadcastic/cmd/tool 1 0\n\n"); err != nil || len(untested) != 0 {
		t.Fatalf("tested main: untested %v (err %v), want none", untested, err)
	}
	if _, _, err := parseMains("broadcastic/cmd/tool\n"); err == nil {
		t.Fatal("line without test-file counts accepted")
	}
}

func TestReadAllowlist(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) string {
		path := filepath.Join(dir, "allow.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	allow, err := readAllowlist(write("# comment\n\nbroadcastic/internal/a.F  tests in b read it\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := allow["broadcastic/internal/a.F"]; got != "tests in b read it" {
		t.Fatalf("reason %q", got)
	}
	if _, err := readAllowlist(write("broadcastic/internal/a.F\n")); err == nil {
		t.Fatal("entry without a reason accepted")
	}
	if _, err := readAllowlist(write("broadcastic/internal/a.F why\nbroadcastic/internal/a.F why again\n")); err == nil {
		t.Fatal("duplicate entry accepted")
	}
}
