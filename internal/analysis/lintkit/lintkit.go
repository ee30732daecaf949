// Package lintkit is the minimal analyzer framework hyblint runs on.
//
// It mirrors the shape of golang.org/x/tools/go/analysis — an Analyzer
// holds a Run function that receives a Pass with the parsed files and
// full type information, and reports Diagnostics — but is built from
// the standard library only, so the repository's static checks carry
// no module dependencies. The subset is deliberate: hyblint's
// analyzers are all single-package and fact-free, which is exactly the
// part of go/analysis that needs no external machinery. If the tree
// ever grows a cross-package analysis, swap this package for the real
// framework; the Analyzer/Pass field names line up one to one.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and as the enable
	// flag on the hyblint command line. It must be a valid Go
	// identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail.
	Doc string

	// Run applies the analyzer to one package. It reports findings via
	// pass.Report and returns an error only for internal failures (a
	// broken invariant in the analyzer itself, never a finding).
	Run func(*Pass) error
}

// String returns the analyzer's name.
func (a *Analyzer) String() string { return a.Name }

// A Pass provides one package's syntax and types to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// TypesSizes is the compiler's size model for GOARCH, the target the
	// package was type-checked for (constant expressions over
	// unsafe.Sizeof are already folded under it).
	TypesSizes types.Sizes
	GOARCH     string

	// Report delivers one diagnostic. The driver supplies it.
	Report func(Diagnostic)

	directives map[*ast.File]map[int][]string
}

// A Diagnostic is one finding, anchored to a position in the package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos falls in a _test.go file. The
// concurrency contracts govern production hot paths; analyzers that
// exempt tests (padcheck's discovery, backoffcheck's wait loops) gate
// on this.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
