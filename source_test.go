// Source rules: checks over the module's own Go files that no behaviour
// test can make. go test runs a package's tests in its directory, so the
// walk starts at the module root.
package hybsync_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hybsync/internal/benchfmt"
)

// rawSpinExempt are the directories whose raw waiting is the point:
// internal/backoff implements the waiter, and internal/chaos's delays
// sleep raw by design.
var rawSpinExempt = map[string]bool{"internal/backoff": true, "internal/chaos": true}

// TestNoRawSpinLoops fails on a for loop that only spins: every
// statement in it is pure waiting (atomic loads, runtime.Gosched,
// time.Sleep, bookkeeping) and it reads atomic state. Such a loop waits
// at a point the stall watchdog cannot see and chaos cannot perturb, and
// wastes its core; route the wait through a backoff.Backoff or
// backoff.Watched, whose Wait call makes the body impure and the loop
// legal. The rule is syntax-only, so it over-approximates an atomic
// load: any zero-argument Load* method call counts, as do the Load*
// functions of sync/atomic.
func TestNoRawSpinLoops(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || rawSpinExempt[p]) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, pos := range rawSpins(f) {
			t.Errorf("%s: raw spin loop: wait through internal/backoff so the stall watchdog and chaos perturbation see it", fset.Position(pos))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found: the test must run from the module root")
	}
}

// TestDocsNameTheBuiltins: README's registry table and NewObject's doc
// comment name exactly the built-in algorithms, so neither drifts when
// a construction comes or goes.
func TestDocsNameTheBuiltins(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// The table's rows sit between its header line and the next blank
	// line; a row's first cell lists its names in backticks.
	_, table, ok := strings.Cut(string(readme), "`hybsync.Algorithms()` lists the registered names:")
	if !ok {
		t.Fatal("README has no registry table")
	}
	table, _, _ = strings.Cut(strings.TrimLeft(table, "\n"), "\n\n")
	var inTable []string
	for _, row := range strings.Split(table, "\n")[2:] {
		cells := strings.Split(row, "|")
		if len(cells) < 3 {
			t.Fatalf("README registry table: malformed row %q", row)
		}
		inTable = append(inTable, quoted(cells[1], "`")...)
	}
	sameNames(t, "README's registry table", inTable)

	f, err := parser.ParseFile(token.NewFileSet(), "hybsync.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "NewObject" && fn.Recv == nil {
			sameNames(t, "NewObject's doc comment", quoted(fn.Doc.Text(), `"`))
			return
		}
	}
	t.Fatal("hybsync.go declares no NewObject")
}

// TestMeasuredAlgosAreTheBuiltins: the registry is exactly what is
// measured — the algo lists of CI's scenario-lab grid and armed-telemetry
// smoke grid, and the set of algos in the committed sweep corpus — so a
// construction registered but never run, or run but no longer
// registered, fails here.
func TestMeasuredAlgosAreTheBuiltins(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	// A step runs from its "- name:" line to the next one; its first
	// algo= list is its grid's.
	algoList := regexp.MustCompile(`algo=([a-z,-]+)`)
	for _, step := range []string{"scenario lab", "telemetry armed smoke"} {
		_, body, ok := strings.Cut(string(ci), "- name: "+step)
		if !ok {
			t.Fatalf("ci.yml has no %q step", step)
		}
		body, _, _ = strings.Cut(body, "- name: ")
		m := algoList.FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("ci.yml's %q step has no algo= grid", step)
		}
		sameNames(t, "ci.yml's "+step+" grid", strings.Split(m[1], ","))
	}

	corpus, err := os.Open("BENCH_sweep.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	recs, err := benchfmt.ReadSweep(corpus)
	if err != nil {
		t.Fatalf("BENCH_sweep.jsonl: %v", err)
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		seen[rec.Algo] = true
	}
	sameNames(t, "BENCH_sweep.jsonl", slices.Collect(maps.Keys(seen)))
}

// quoted returns the algorithm-shaped names that q quotes in s.
func quoted(s, q string) []string {
	re := regexp.MustCompile(regexp.QuoteMeta(q) + `([a-z][a-z-]*)` + regexp.QuoteMeta(q))
	var names []string
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		names = append(names, m[1])
	}
	return names
}

// sameNames fails unless names, sorted, are requiredAlgos.
func sameNames(t *testing.T, where string, names []string) {
	t.Helper()
	slices.Sort(names)
	if !slices.Equal(names, requiredAlgos) {
		t.Errorf("%s names %v, want the built-ins %v", where, names, requiredAlgos)
	}
}

// TestRawSpinRule pins what the rule flags and what it leaves alone.
func TestRawSpinRule(t *testing.T) {
	for _, c := range []struct {
		name, body string
		flagged    bool
	}{
		{"load method", "for x.Load() {}", true},
		{"load in body", "for { if x.Load() { break } }", true},
		{"gosched", "for !x.Load() { runtime.Gosched() }", true},
		{"package load", "for atomic.LoadUint32(&w) == 0 { time.Sleep(1) }", true},
		{"renamed import", "for sa.LoadInt64(&v) != 0 {}", true},
		{"bookkeeping", "for n := 0; x.Load(); n++ { v = n }", true},
		{"backoff", "for x.Load() { b.Wait() }", false},
		{"cas condition", "for !x.CompareAndSwap(false, true) {}", false},
		{"other work", "for x.Load() { work() }", false},
		{"no atomic state", "for !done() { time.Sleep(1) }", false},
		{"counting loop", "for i := 0; i < n; i++ {}", false},
	} {
		src := "package p\nimport (\n\"runtime\"\n\"sync/atomic\"\nsa \"sync/atomic\"\n\"time\"\n)\nfunc f() {\n" + c.body + "\n}\n"
		f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := len(rawSpins(f)) == 1; got != c.flagged {
			t.Errorf("%s: %q flagged = %v, want %v", c.name, c.body, got, c.flagged)
		}
	}
}

// rawSpins returns the position of every for loop in f that only spins.
func rawSpins(f *ast.File) []token.Pos {
	s := spinRule{imports: map[string]string{}}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		s.imports[name] = p
	}
	var found []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if loop, ok := n.(*ast.ForStmt); ok && s.spins(loop) {
			found = append(found, loop.Pos())
		}
		return true
	})
	return found
}

// spinRule classifies loops in one file; imports maps each import's name
// in the file to its path.
type spinRule struct{ imports map[string]string }

func (s spinRule) spins(loop *ast.ForStmt) bool {
	if loop.Cond != nil && !s.pureRead(loop.Cond) {
		return false // work happens in the condition (e.g. a CAS)
	}
	if loop.Init != nil && !s.pureWait(loop.Init) || loop.Post != nil && !s.pureWait(loop.Post) {
		return false
	}
	if !s.pureWaits(loop.Body.List) {
		return false
	}
	// A pure loop with no atomic state (a counting or a timer loop) is
	// not a wait on another thread.
	loads := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && s.atomicLoad(call) {
			loads = true
		}
		return !loads
	})
	return loads
}

func (s spinRule) pureWaits(list []ast.Stmt) bool {
	for _, st := range list {
		if !s.pureWait(st) {
			return false
		}
	}
	return true
}

// pureWait reports whether st does nothing but wait: no work a backoff
// waiter would not subsume.
func (s spinRule) pureWait(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.EmptyStmt, *ast.BranchStmt, *ast.ReturnStmt, *ast.IncDecStmt:
		return true
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		return ok && (s.atomicLoad(call) || s.pkgFunc(call, "runtime", "Gosched") || s.pkgFunc(call, "time", "Sleep"))
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			if !s.pureRead(rhs) {
				return false
			}
		}
		return true
	case *ast.IfStmt:
		if st.Init != nil && !s.pureWait(st.Init) || !s.pureRead(st.Cond) || !s.pureWaits(st.Body.List) {
			return false
		}
		switch e := st.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return s.pureWaits(e.List)
		case *ast.IfStmt:
			return s.pureWait(e)
		}
	}
	return false
}

// pureRead reports whether e computes a value with nothing but reads and
// atomic loads.
func (s spinRule) pureRead(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.BasicLit, *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.UnaryExpr:
		return e.Op != token.ARROW && s.pureRead(e.X)
	case *ast.BinaryExpr:
		return s.pureRead(e.X) && s.pureRead(e.Y)
	case *ast.CallExpr:
		return s.atomicLoad(e)
	}
	return false
}

// atomicLoad reports whether call reads atomic state: a sync/atomic Load*
// function, or any zero-argument Load* method (x.seq.Load()).
func (s spinRule) atomicLoad(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Load") {
		return false
	}
	return len(call.Args) == 0 || s.pkgFunc(call, "sync/atomic", sel.Sel.Name)
}

// pkgFunc reports whether call calls the function name of the package at
// path pkg, as the file imports it.
func (s spinRule) pkgFunc(call *ast.CallExpr, pkg, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && s.imports[id.Name] == pkg
}
