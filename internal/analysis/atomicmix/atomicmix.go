// Package atomicmix flags struct fields accessed through sync/atomic
// in one place and by plain load/store in another. Mixed access is a
// data race the race detector only catches if both sides execute in
// the same run; the engine's task counter and the server's counter
// structs live exactly on this edge (they avoid it today by using the
// typed atomic.Uint64/atomic.Int64 API, which makes plain access
// inexpressible — this analyzer holds any future function-style
// atomics to the same standard).
package atomicmix

import (
	"go/ast"
	"go/types"

	"peregrine/internal/analysis"
)

// Analyzer reports fields with both atomic and plain accesses.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "flag struct fields accessed both via sync/atomic and plainly\n\n" +
		"A field passed by address to sync/atomic functions (Load*, Store*,\n" +
		"Add*, Swap*, CompareAndSwap*) must be accessed that way everywhere:\n" +
		"one plain read or write makes every access a data race. Composite\n" +
		"literal initialization is exempt (the value is not yet shared).\n" +
		"Prefer the typed sync/atomic types (atomic.Uint64, atomic.Pointer),\n" +
		"which make the plain form inexpressible.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	type access struct {
		atomic []ast.Node // the atomic call sites
		plain  []ast.Node // the plain selector uses
	}
	accesses := make(map[*types.Var]*access)
	at := func(f *types.Var) *access {
		a := accesses[f]
		if a == nil {
			a = &access{}
			accesses[f] = a
		}
		return a
	}
	// Selector nodes consumed by an atomic call's &field argument; they
	// must not also count as plain uses.
	viaAtomic := make(map[*ast.SelectorExpr]bool)

	for _, file := range pass.Files {
		// First pass: atomic call sites.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFn(pass, call) || len(call.Args) == 0 {
				return true
			}
			if un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok {
				if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
					if f := fieldOf(pass, sel); f != nil {
						at(f).atomic = append(at(f).atomic, call)
						viaAtomic[sel] = true
					}
				}
			}
			return true
		})
		// Second pass: plain uses of the same fields.
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || viaAtomic[sel] {
				return true
			}
			if f := fieldOf(pass, sel); f != nil {
				at(f).plain = append(at(f).plain, sel)
			}
			return true
		})
	}

	for f, a := range accesses {
		if len(a.atomic) == 0 || len(a.plain) == 0 {
			continue
		}
		atomicPos := pass.Fset.Position(a.atomic[0].Pos())
		for _, p := range a.plain {
			pass.Reportf(p.Pos(),
				"field %s is accessed with sync/atomic at %s; this plain access races with it",
				f.Name(), atomicPos)
		}
	}
	return nil, nil
}

// isAtomicFn reports whether call invokes a sync/atomic package-level
// function (the address-taking style; typed atomics have no plain
// counterpart and need no check).
func isAtomicFn(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	// Package-level func, not a method on atomic.Uint64 etc.
	return fn.Type().(*types.Signature).Recv() == nil
}

// fieldOf resolves sel to the struct field it reads or writes, or nil.
func fieldOf(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}
