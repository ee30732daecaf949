// Package antest runs lintkit analyzers over fixture packages, in the
// style of golang.org/x/tools/go/analysis/analysistest: each analyzer
// keeps Go source fixtures under testdata/src/<pkg>/, annotated with
//
//	x := busyWait() // want `raw spin loop`
//
// comments, and the test fails on any diagnostic without a matching
// expectation or expectation without a matching diagnostic — so every
// fixture proves both that the analyzer fires and that it would fail
// without the analyzer.
//
// Fixture packages import each other by bare directory name (a fixture
// "pad" package stands in for hybsync/internal/pad) and may import
// the real standard library, which is type-checked from GOROOT source
// so the suite runs offline. Every fixture is type-checked and analyzed
// twice, with the gc sizes for amd64 and for 386 regardless of host, and
// the two runs' diagnostics are checked as one set: a layout finding
// that exists only on one target fires its // want line, and a finding
// that does not depend on sizes is reported identically by both runs
// and counted once.
package antest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hybsync/internal/analysis/lintkit"
)

// fixtureArches are the targets every fixture is analyzed for.
var fixtureArches = []string{"amd64", "386"}

// Run loads each fixture package under testdata/src and applies a to
// it, checking diagnostics against the // want comments in that
// package's files.
func Run(t *testing.T, a *lintkit.Analyzer, pkgpaths ...string) {
	t.Helper()
	loaders := make([]*loader, len(fixtureArches))
	for i, goarch := range fixtureArches {
		loaders[i] = newLoader(t, filepath.Join("testdata", "src"), goarch)
	}
	for _, path := range pkgpaths {
		var diags []diagnostic
		seen := make(map[diagnostic]bool)
		for _, l := range loaders {
			pkg := l.load(path)
			pass := &lintkit.Pass{
				Analyzer:   a,
				Fset:       l.fset,
				Files:      pkg.files,
				Pkg:        pkg.pkg,
				TypesInfo:  pkg.info,
				TypesSizes: l.sizes,
				GOARCH:     l.goarch,
				Report: func(d lintkit.Diagnostic) {
					if d := (diagnostic{l.fset.Position(d.Pos), d.Message}); !seen[d] {
						seen[d] = true
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				t.Errorf("%s: analyzer %s failed for %s: %v", path, a.Name, l.goarch, err)
			}
		}
		// Either load's syntax carries the // want comments.
		checkWants(t, loaders[0].fset, path, loaders[0].load(path).files, diags)
	}
}

// A diagnostic is one finding resolved to file:line:column, so that the
// same finding from two loads of a fixture compares equal.
type diagnostic struct {
	pos     token.Position
	message string
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

type loader struct {
	t       *testing.T
	root    string
	goarch  string
	sizes   types.Sizes // gc's, for goarch
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*loadedPkg
	loading map[string]bool
}

func newLoader(t *testing.T, root, goarch string) *loader {
	fset := token.NewFileSet()
	return &loader{
		t:       t,
		root:    root,
		goarch:  goarch,
		sizes:   types.SizesFor("gc", goarch),
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*loadedPkg),
		loading: make(map[string]bool),
	}
}

// Import makes the loader a types.Importer: fixture directories win,
// anything else resolves against the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.root, path); isDir(dir) {
		return l.load(path).pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) *loadedPkg {
	l.t.Helper()
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	if l.loading[path] {
		l.t.Fatalf("fixture import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatalf("fixture package %q: %v", path, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		l.t.Fatalf("fixture package %q has no Go files", path)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			l.t.Fatalf("fixture package %q: %v", path, err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{Importer: l, Sizes: l.sizes}
	pkg, err := tc.Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("fixture package %q does not type-check: %v", path, err)
	}
	p := &loadedPkg{pkg: pkg, files: files, info: info}
	l.pkgs[path] = p
	return p
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// A want is one expectation: a diagnostic whose message matches re
// must be reported on this file and line.
type want struct {
	pos     token.Position // of the comment, for failure messages
	re      *regexp.Regexp
	matched bool
}

// wantRE pulls the quoted or backquoted patterns off a want comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string]map[int][]*want {
	t.Helper()
	wants := make(map[string]map[int][]*want)
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				pats := wantRE.FindAllString(rest, -1)
				if len(pats) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, pat := range pats {
					pat = pat[1 : len(pat)-1] // strip quotes
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					byLine := wants[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]*want)
						wants[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], &want{pos: pos, re: re})
				}
			}
		}
	}
	return wants
}

func checkWants(t *testing.T, fset *token.FileSet, pkg string, files []*ast.File, diags []diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, files)
	for _, d := range diags {
		pos := d.pos
		found := false
		for _, w := range wants[pos.Filename][pos.Line] {
			if !w.matched && w.re.MatchString(d.message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.message)
		}
	}
	for _, byLine := range wants {
		lines := make([]int, 0, len(byLine))
		for line := range byLine {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			for _, w := range byLine[line] {
				if !w.matched {
					t.Errorf("%s: expected diagnostic matching %q, got none (package %s)", w.pos, w.re, pkg)
				}
			}
		}
	}
}
