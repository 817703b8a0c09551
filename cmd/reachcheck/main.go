// Command reachcheck is the CI gate that keeps non-test code reachable: every
// function declared outside _test.go files under internal/ must be linked
// into some main package, or be listed in allowlist.txt with a reason.
//
//	go run ./cmd/reachcheck
//
// Run it from the root module. It builds every main package of the root
// module and of bench/ with inlining off and the linker's -dumpdep, so each
// call shows up as a linker edge, and diffs the reached symbols against a
// go/ast list of the functions under internal/. Packages whose name ends in
// "test" (disj/disjtest) are test support and are not listed. Generic
// instantiations match by name: ir.Memo[go.shape.*uint8] is ir.Memo.
//
// It exits 1 when a function is neither reached nor allowlisted, when an
// allowlist entry is reached or names no function, so the list cannot go
// stale, and when a main package has no _test.go file, since a main keeps
// code reachable only if a test runs it. It exits 2 when a build or parse
// fails.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowlistFile is relative to the root module's directory.
const allowlistFile = "cmd/reachcheck/allowlist.txt"

func main() {
	os.Exit(run(os.Stdout, os.Stderr))
}

func run(stdout, stderr io.Writer) int {
	out, err := goCmd(".", "list", "-m", "-f", "{{.Path}} {{.Dir}}")
	if err != nil {
		fmt.Fprintf(stderr, "reachcheck: %v\n", err)
		return 2
	}
	modPath, root, _ := strings.Cut(strings.TrimSpace(out), " ")

	reached := make(map[string]bool)
	var untested []string
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		u, err := linkMains(dir, reached)
		if err != nil {
			fmt.Fprintf(stderr, "reachcheck: %v\n", err)
			return 2
		}
		untested = append(untested, u...)
	}
	funcs, err := declaredFuncs(root, modPath)
	if err != nil {
		fmt.Fprintf(stderr, "reachcheck: %v\n", err)
		return 2
	}
	allow, err := readAllowlist(filepath.Join(root, allowlistFile))
	if err != nil {
		fmt.Fprintf(stderr, "reachcheck: %v\n", err)
		return 2
	}

	unreached, stale := check(funcs, reached, allow)
	for _, f := range unreached {
		fmt.Fprintf(stdout, "unreached: %s (%s)\n", f.Sym, f.Pos)
	}
	for _, s := range stale {
		fmt.Fprintf(stdout, "stale allowlist entry: %s\n", s)
	}
	for _, m := range untested {
		fmt.Fprintf(stdout, "untested main: %s\n", m)
	}
	if len(unreached) > 0 || len(stale) > 0 {
		fmt.Fprintf(stdout, "reachcheck: %d unreached, %d stale; call the code from a main, move it into test support, or allowlist it in %s with a reason\n",
			len(unreached), len(stale), allowlistFile)
	}
	if len(untested) > 0 {
		fmt.Fprintf(stdout, "reachcheck: %d main packages have no _test.go file; test each main, or move what it shows into an Example of the package it uses\n",
			len(untested))
	}
	if len(unreached)+len(stale)+len(untested) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "reachcheck: all %d functions under internal/ are reached by a main or allowlisted (%d entries)\n",
		len(funcs), len(allow))
	return 0
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out.String())
	}
	return out.String(), nil
}

// mainsFormat makes go list print each main package as its import path and
// its counts of in-package and external test files.
const mainsFormat = `{{if eq .Name "main"}}{{.ImportPath}} {{len .TestGoFiles}} {{len .XTestGoFiles}}{{end}}`

// linkMains builds every main package of the module in dir with -dumpdep,
// adds each symbol the linker keeps to reached, and returns the mains that
// have no test file.
func linkMains(dir string, reached map[string]bool) ([]string, error) {
	out, err := goCmd(dir, "list", "-f", mainsFormat, "./...")
	if err != nil {
		return nil, err
	}
	mains, untested, err := parseMains(out)
	if err != nil {
		return nil, err
	}
	if len(mains) == 0 {
		return nil, fmt.Errorf("no main packages in %s", dir)
	}
	bin, err := os.MkdirTemp("", "reachcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(bin)
	args := append([]string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", bin + string(filepath.Separator)}, mains...)
	out, err = goCmd(dir, args...)
	if err != nil {
		return nil, err
	}
	parseDumpdep(strings.NewReader(out), reached)
	return untested, nil
}

// parseMains reads go list output in mainsFormat, one main package a line
// (other packages print blank lines), and returns every main and the mains
// with neither kind of test file.
func parseMains(out string) (mains, untested []string, err error) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 3 {
			return nil, nil, fmt.Errorf("go list: unexpected line %q", line)
		}
		mains = append(mains, f[0])
		if f[1] == "0" && f[2] == "0" {
			untested = append(untested, f[0])
		}
	}
	return mains, untested, nil
}

// parseDumpdep reads linker -dumpdep lines ("from -> to") and adds each
// target, normalized, to reached. Other lines, such as the go command's
// "# pkg" headers, are skipped.
func parseDumpdep(r io.Reader, reached map[string]bool) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if _, to, ok := strings.Cut(sc.Text(), " -> "); ok {
			reached[normalize(to)] = true
		}
	}
}

// linkerFlags matches the attribute suffixes -dumpdep appends to a symbol,
// such as " <UsedInIface>" and " <ReflectMethod>".
var linkerFlags = regexp.MustCompile(`( <[A-Za-z]+>)+$`)

// normalize drops linker attribute suffixes and every bracketed type
// argument list, so an instantiation such as pkg.Memo[go.shape.*uint8] or
// pkg.(*mailbox[go.shape.struct { ... }]).put names its generic function.
func normalize(sym string) string {
	sym = linkerFlags.ReplaceAllString(sym, "")
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// A funcDecl is a function declared in non-test code, named as the linker
// names it: importpath.Func, importpath.T.Method or importpath.(*T).Method.
type funcDecl struct {
	Sym string
	Pos string // file:line relative to the module root
}

// declaredFuncs lists the functions declared in the non-test files of the
// packages under root/internal, skipping test-support packages.
func declaredFuncs(root, modPath string) ([]funcDecl, error) {
	var funcs []funcDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkgPath := modPath + "/" + filepath.ToSlash(filepath.Dir(rel))
		decls, err := fileFuncs(fset, filepath.ToSlash(rel), pkgPath, src)
		funcs = append(funcs, decls...)
		return err
	})
	return funcs, err
}

// fileFuncs lists the functions one source file declares. init functions are
// skipped (the linker numbers them), as is every file of a package whose name
// ends in "test".
func fileFuncs(fset *token.FileSet, name, pkgPath string, src []byte) ([]funcDecl, error) {
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(f.Name.Name, "test") {
		return nil, nil
	}
	var funcs []funcDecl
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
			continue
		}
		sym := pkgPath + "." + fn.Name.Name
		if fn.Recv != nil && len(fn.Recv.List) == 1 {
			sym = pkgPath + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
		}
		funcs = append(funcs, funcDecl{Sym: sym, Pos: fmt.Sprintf("%s:%d", name, fset.Position(fn.Pos()).Line)})
	}
	return funcs, nil
}

// recvName renders a receiver type as the linker does, without type
// parameters: T for a value receiver, (*T) for a pointer one.
func recvName(expr ast.Expr) string {
	star := false
	if s, ok := expr.(*ast.StarExpr); ok {
		star, expr = true, s.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	name := "?"
	if id, ok := expr.(*ast.Ident); ok {
		name = id.Name
	}
	if star {
		return "(*" + name + ")"
	}
	return name
}

// readAllowlist reads one entry a line: a symbol as reachcheck prints it,
// then the reason it may stay unreached. Blank lines and lines starting with
// # are comments. An entry without a reason is an error.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: entry %s has no reason", path, i+1, sym)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", path, i+1, sym)
		}
		allow[sym] = strings.TrimSpace(reason)
	}
	return allow, nil
}

// check returns the declared functions that are neither reached nor
// allowlisted, and the allowlist entries that are reached or name no
// declared function, both sorted.
func check(funcs []funcDecl, reached map[string]bool, allow map[string]string) (unreached []funcDecl, stale []string) {
	declared := make(map[string]bool, len(funcs))
	for _, f := range funcs {
		declared[f.Sym] = true
		if !reached[f.Sym] && allow[f.Sym] == "" {
			unreached = append(unreached, f)
		}
	}
	for sym := range allow {
		switch {
		case !declared[sym]:
			stale = append(stale, sym+" (no such function)")
		case reached[sym]:
			stale = append(stale, sym+" (reached)")
		}
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].Sym < unreached[j].Sym })
	sort.Strings(stale)
	return unreached, stale
}
