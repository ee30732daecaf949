// Package padcheck machine-verifies the pad.Line / tail-pad layout
// idiom under the compiler's own size model for the target it is run
// for.
//
// The per-package layout tests assert offsets with unsafe.Sizeof and
// unsafe.Offsetof — but those constants fold for the architecture the
// tests run on, so a layout that is line-padded on amd64 can silently
// mis-pad on 386/arm, where CI builds but never runs a test. padcheck
// closes that hole statically, with no size model of its own: hyblint
// type-checks each package with types.SizesFor(compiler, GOARCH), under
// which go/types folds every
// `[pad.CacheLine - unsafe.Sizeof(hot{})%pad.CacheLine]byte` for that
// target and applies gc's layout rules (sync/atomic's align64 included),
// so pass.TypesSizes answers Sizeof and Offsetsof exactly as the
// compiler would. CI runs the suite once per target —
//
//	go vet -vettool=hyblint ./... && GOARCH=386 go vet -vettool=hyblint ./...
//
// — and for every struct annotated
//
//	//hyblint:padded   — an array-element type; must be a whole number
//	                     of cache lines
//	//hyblint:padsep   — a header type using pad.Line separators; no
//	                     overall size requirement
//
// padcheck reports:
//
//   - a padded struct whose size is not a whole number of cache lines —
//     the stale hand-counted pad bug;
//   - two fields separated by an explicit pad field that still share a
//     cache line — the under-separation bug;
//   - pad idiom structs (a pad.Line field, or an unsafe-computed tail
//     pad) that lack a marker, so new constructions cannot pad
//     heuristically and skip verification.
package padcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"hybsync/internal/analysis/lintkit"
)

// Analyzer is the padcheck analysis.
var Analyzer = &lintkit.Analyzer{
	Name: "padcheck",
	Doc:  "verifies //hyblint:padded struct layouts under the target's size model",
	Run:  run,
}

// cacheLine mirrors pad.CacheLine; the padding contract is in units of
// 64-byte lines.
const cacheLine = 64

func run(pass *lintkit.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || pass.InTestFile(ts.Pos()) {
					continue
				}
				checkStructDecl(pass, gd, ts, st)
			}
		}
	}
	return nil
}

func checkStructDecl(pass *lintkit.Pass, gd *ast.GenDecl, ts *ast.TypeSpec, st *ast.StructType) {
	padded := pass.Directive(ts, "padded") || pass.Directive(gd, "padded")
	padsep := pass.Directive(ts, "padsep") || pass.Directive(gd, "padsep")

	tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	styp, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	name := ts.Name.Name

	if !padded && !padsep {
		// Discovery: pad idioms without a marker skip verification.
		if tail, sep := padIdiomUse(pass, st); tail {
			pass.Reportf(ts.Pos(), "struct %s uses an unsafe-computed tail pad but has no //hyblint:padded marker, so its layout is unverified", name)
		} else if sep {
			pass.Reportf(ts.Pos(), "struct %s uses pad.Line separators but has no //hyblint:padsep marker, so its layout is unverified", name)
		}
		return
	}
	if padded && padsep {
		pass.Reportf(ts.Pos(), "struct %s carries both //hyblint:padded and //hyblint:padsep; pick one", name)
		return
	}

	sizes := pass.TypesSizes
	if size := sizes.Sizeof(styp); padded && size%cacheLine != 0 {
		pass.Reportf(ts.Pos(), "padded struct %s is %d bytes on %s, not a whole number of %d-byte cache lines", name, size, pass.GOARCH, cacheLine)
	}

	// The pad.Line contract: when the author put an explicit pad field
	// between two live fields, those fields must not share a cache line.
	fields := make([]*types.Var, styp.NumFields())
	for i := range fields {
		fields[i] = styp.Field(i)
	}
	offsets := sizes.Offsetsof(fields)
	prev, sawPad := -1, false
	for i, f := range fields {
		if isPadField(f) {
			sawPad = true
			continue
		}
		size := sizes.Sizeof(f.Type())
		if size == 0 {
			continue
		}
		if sawPad && prev >= 0 {
			prevEnd := offsets[prev] + sizes.Sizeof(fields[prev].Type()) - 1
			if prevEnd/cacheLine == offsets[i]/cacheLine {
				pass.Reportf(ts.Pos(), "fields %s and %s of %s are separated by a pad field but share a cache line on %s (offsets %d and %d)", fields[prev].Name(), f.Name(), name, pass.GOARCH, offsets[prev], offsets[i])
			}
		}
		prev, sawPad = i, false
	}
}

// isPadField reports whether f is an explicit padding field: blank, and
// a pad.Line or a byte array.
func isPadField(f *types.Var) bool {
	if f.Name() != "_" {
		return false
	}
	if isPadLineType(f.Type()) {
		return true
	}
	arr, ok := f.Type().Underlying().(*types.Array)
	if !ok {
		return false
	}
	b, ok := arr.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// isPadLineType reports whether t is the pad.Line separator type
// (matched by name so fixtures can supply their own pad package).
func isPadLineType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Line" && obj.Pkg() != nil && obj.Pkg().Name() == "pad"
}

// padIdiomUse reports whether the struct syntax uses an unsafe-computed
// tail pad and/or pad.Line separators.
func padIdiomUse(pass *lintkit.Pass, st *ast.StructType) (tailPad, separators bool) {
	for _, field := range st.Fields.List {
		if len(field.Names) != 1 || field.Names[0].Name != "_" {
			continue
		}
		if t := pass.TypesInfo.Types[field.Type].Type; t != nil && isPadLineType(t) {
			separators = true
			continue
		}
		if at, ok := field.Type.(*ast.ArrayType); ok && at.Len != nil && containsUnsafe(pass, at.Len) {
			tailPad = true
		}
	}
	return tailPad, separators
}

// containsUnsafe reports whether e contains a call into package unsafe
// — the mark of a length computed from the layout it pads.
func containsUnsafe(pass *lintkit.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				b, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Builtin)
				found = ok && b.Pkg() != nil && b.Pkg().Path() == "unsafe"
			}
		}
		return !found
	})
	return found
}
