// Package latchdispatch enforces the fault-containment choke point:
// inside the construction packages (internal/core, internal/shmsync,
// internal/shard), Object.DispatchBatch must never be
// called directly — every dispatch flows through PoisonLatch.Dispatch,
// which is what recovers a panicking object into the poisoned state
// and zero-fills the results.
//
// PR 9's hybrid executor showed why reviewer memory is not enough: a
// new construction assembles its dispatch path from scratch, and one
// direct obj.DispatchBatch(...) call silently opts it out of the PR 7
// fault model (a panic in the object deadlocks every waiter instead
// of poisoning the executor). The only legitimate direct call is the
// one inside PoisonLatch.Dispatch itself.
//
// Out-of-scope packages (chaos wrappers, conc objects, measure) may
// call DispatchBatch freely: they sit below or beside the latch, not
// above it. A reviewed in-scope exception carries //hyblint:latchok.
package latchdispatch

import (
	"go/ast"
	"go/types"
	"strings"

	"hybsync/internal/analysis/lintkit"
)

// Analyzer is the latchdispatch analysis.
var Analyzer = &lintkit.Analyzer{
	Name: "latchdispatch",
	Doc:  "construction packages must dispatch through PoisonLatch.Dispatch, never Object.DispatchBatch directly",
	Run:  run,
}

// scopePkgs are the construction packages, matched by final import
// path segment so the analyzer covers both the real tree
// (hybsync/internal/core) and fixtures (core).
var scopePkgs = map[string]bool{"core": true, "shmsync": true, "shard": true}

func run(pass *lintkit.Pass) error {
	path := pass.Pkg.Path()
	if !scopePkgs[path[strings.LastIndex(path, "/")+1:]] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isLatchDispatch(fd) {
				continue // the one legitimate direct call site
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isDispatchBatchCall(pass, call) {
					return true
				}
				if pass.InTestFile(call.Pos()) || pass.Directive(call, "latchok") {
					return true
				}
				pass.Reportf(call.Pos(), "direct Object.DispatchBatch call bypasses fault containment: route it through PoisonLatch.Dispatch (or waive with //hyblint:latchok)")
				return true
			})
		}
	}
	return nil
}

// isLatchDispatch reports whether fd is the Dispatch method of
// PoisonLatch — the guarded call the rest of the tree must use.
func isLatchDispatch(fd *ast.FuncDecl) bool {
	if fd.Name.Name != "Dispatch" || fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "PoisonLatch"
}

// isDispatchBatchCall reports whether call invokes a method named
// DispatchBatch with the Object shape: two parameters, both slices.
// Matching on shape rather than one interface identity means every
// implementer and every embedding is covered, fixtures included.
func isDispatchBatchCall(pass *lintkit.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "DispatchBatch" {
		return false
	}
	if _, ok := pass.TypesInfo.Selections[sel]; !ok {
		return false // qualified identifier (pkg.DispatchBatch), not a method
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		if _, ok := sig.Params().At(i).Type().Underlying().(*types.Slice); !ok {
			return false
		}
	}
	return true
}
