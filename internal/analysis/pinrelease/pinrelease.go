// Package pinrelease enforces the registry's pin protocol: the release
// func returned by Registry.Acquire must run on every path out of the
// acquiring function. A leaked pin never crashes —
// release is idempotent and the registry tolerates it — it just marks
// the graph permanently in-use, silently defeating -max-graph-bytes
// eviction until the pins exhaust memory. That failure mode is
// invisible to tests (counts stay exact) and only shows up as a
// production server that stops evicting; this analyzer makes it a
// compile-gate error instead.
package pinrelease

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"peregrine/internal/analysis"
)

// Analyzer checks that pin-release funcs are called on all return
// paths.
var Analyzer = &analysis.Analyzer{
	Name: "pinrelease",
	Doc: "ensure pin-release funcs from Acquire run on every path\n\n" +
		"A call to a method named Acquire that returns a func()\n" +
		"hands back a pin release. The release must be deferred, called on\n" +
		"every return path, or escape (stored, passed, or returned) so some\n" +
		"other owner is accountable for it. Returns on the acquire's own\n" +
		"error path are exempt (the release is nil there). Prefer defer: it\n" +
		"is the only form that also covers panic paths.",
	Run: run,
}

// allowlist names functions exempt from the protocol, keyed as
// "pkg.(*Recv).Name". The only entry is deliberate, not an accident of
// analysis: Registry.Get documents an acquire-then-immediately-release
// contract (a convenience for budgetless registries; see its doc
// comment), which is exactly the shape this analyzer exists to flag
// everywhere else.
var allowlist = map[string]bool{
	"server.(*Registry).Get": true,
}

// acquireName is the pin-granting method. Matching is by method name
// plus a func() anywhere in the results, so the fixtures and any other
// Acquire are held to the same rule without a hard dependency on the
// server package.
const acquireName = "Acquire"

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil || allowlist[funcKey(pass, fn)] {
					return false
				}
				checkBody(pass, fn.Body)
			case *ast.FuncLit:
				checkBody(pass, fn.Body)
			}
			return true
		})
	}
	return nil, nil
}

// funcKey renders fn as "pkg.Name" or "pkg.(*Recv).Name" for the
// allowlist.
func funcKey(pass *analysis.Pass, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pass.Pkg.Name() + "." + fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	recv := types.ExprString(t)
	if !strings.HasPrefix(recv, "(") {
		recv = "(" + recv + ")"
	}
	return pass.Pkg.Name() + "." + recv + "." + fn.Name.Name
}

// acquire is one pin-granting call site being tracked.
type acquire struct {
	call    *ast.CallExpr
	relIdx  int          // index of the func() in the result tuple
	rel     types.Object // the release variable, nil if untracked
	errObj  types.Object // the acquire's error result variable, if any
	pos     token.Pos    // position after which paths must release
	name    string       // the method's name, for diagnostics
	escaped bool
}

// event is one use of a release variable relevant to path coverage.
type event struct {
	pos   token.Pos
	chain []ast.Node // enclosing block-ish nodes, outermost first
}

// checkBody analyzes one function body. Nested function literals are
// skipped here (ast.Inspect in run visits them separately); a release
// variable referenced inside a nested literal counts as an escape.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	for _, acq := range findAcquires(pass, body) {
		switch {
		case acq.rel == nil && acq.escaped:
			// Results forwarded whole (return/arg): someone else owns it.
		case acq.rel == nil:
			pass.Reportf(acq.call.Pos(),
				"release func returned by %s is discarded; the pin can never be released", acq.name)
		default:
			checkCoverage(pass, body, acq)
		}
	}
}

// findAcquires locates pin-granting calls in body (outside nested
// literals) and resolves how their release func is bound.
func findAcquires(pass *analysis.Pass, body *ast.BlockStmt) []*acquire {
	var out []*acquire
	walkShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		idx, ok := acquireCall(pass, call)
		if !ok {
			return
		}
		acq := &acquire{call: call, relIdx: idx, pos: call.End(), name: calleeName(call)}
		bindResults(pass, body, call, acq)
		out = append(out, acq)
	})
	return out
}

// acquireCall reports whether call invokes a pin-granting method and
// returns the index of the func() among its results.
func acquireCall(pass *analysis.Pass, call *ast.CallExpr) (int, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != acquireName {
		return 0, false
	}
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return 0, false
	}
	res := sig.Results()
	relIdx := -1
	for i := 0; i < res.Len(); i++ {
		if s, ok := res.At(i).Type().Underlying().(*types.Signature); ok &&
			s.Params().Len() == 0 && s.Results().Len() == 0 {
			if relIdx >= 0 {
				return 0, false // ambiguous: two func() results
			}
			relIdx = i
		}
	}
	return relIdx, relIdx >= 0
}

func calleeName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "acquire"
}

// bindResults finds the statement consuming call's results and binds
// acq.rel / acq.errObj. A call whose results are forwarded whole
// (return statement, argument position) marks the acquire escaped.
func bindResults(pass *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr, acq *acquire) {
	var bind func(lhs []ast.Expr)
	bind = func(lhs []ast.Expr) {
		if len(lhs) <= acq.relIdx {
			return
		}
		if id, ok := lhs[acq.relIdx].(*ast.Ident); ok && id.Name != "_" {
			acq.rel = obj(pass, id)
		} else if _, blank := lhs[acq.relIdx].(*ast.Ident); !blank {
			acq.escaped = true // bound to a field/index: stored away
		}
		for _, l := range lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
				if o := obj(pass, id); o != nil && o.Type() != nil && isErrorType(o.Type()) {
					acq.errObj = o
				}
			}
		}
	}
	found := false
	walkShallow(body, func(n ast.Node) {
		if found {
			return
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && ast.Unparen(st.Rhs[0]) == call {
				bind(st.Lhs)
				found = true
			}
		case *ast.ValueSpec:
			if len(st.Values) == 1 && ast.Unparen(st.Values[0]) == call {
				lhs := make([]ast.Expr, len(st.Names))
				for i, id := range st.Names {
					lhs[i] = id
				}
				bind(lhs)
				found = true
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if ast.Unparen(r) == call {
					acq.escaped = true
					found = true
				}
			}
		case *ast.CallExpr:
			if st == call {
				return
			}
			for _, a := range st.Args {
				if ast.Unparen(a) == call {
					acq.escaped = true
					found = true
				}
			}
		}
	})
}

func obj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Uses[id]
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

// checkCoverage verifies every return path after the acquire releases
// the pin. Coverage is judged by block structure: a release (call or
// defer) at position P in block B covers any return after P inside B
// or its nested blocks — statements of a block execute in order, so
// the release dominates them.
func checkCoverage(pass *analysis.Pass, body *ast.BlockStmt, acq *acquire) {
	var releases []event // rel() calls and defer rel() sites
	var acquireChain []ast.Node
	escaped := false

	type ret struct {
		pos        token.Pos
		chain      []ast.Node
		errGuarded bool
	}
	var returns []ret

	var walk func(n ast.Node, chain []ast.Node, errDepth int)
	walk = func(n ast.Node, chain []ast.Node, errDepth int) {
		switch st := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			// A use inside a closure escapes our intraprocedural view.
			ast.Inspect(st.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && obj(pass, id) == acq.rel {
					escaped = true
				}
				return true
			})
			return
		case *ast.DeferStmt:
			if isRelCall(pass, st.Call, acq.rel) {
				releases = append(releases, event{st.Pos(), clone(chain)})
				return
			}
			walk(st.Call, chain, errDepth)
			return
		case *ast.CallExpr:
			if st == acq.call {
				acquireChain = clone(chain)
			}
			if isRelCall(pass, st, acq.rel) {
				releases = append(releases, event{st.Pos(), clone(chain)})
				// Arguments can't mention rel here (rel takes none).
				return
			}
			for _, a := range st.Args {
				walk(a, chain, errDepth)
			}
			walk(st.Fun, chain, errDepth)
			return
		case *ast.Ident:
			if acq.rel != nil && obj(pass, st) == acq.rel && st.Pos() > acq.call.End() {
				escaped = true // passed, stored, compared: someone else owns it
			}
			return
		case *ast.ReturnStmt:
			if st.Pos() > acq.pos {
				returns = append(returns, ret{st.Pos(), clone(chain), errDepth > 0})
			}
			for _, r := range st.Results {
				walk(r, chain, errDepth)
			}
			return
		case *ast.AssignStmt:
			// `_ = rel` discards, it does not hand the pin to an owner;
			// skip those pairs so they neither escape nor release.
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					l, lok := st.Lhs[i].(*ast.Ident)
					r, rok := ast.Unparen(st.Rhs[i]).(*ast.Ident)
					if lok && rok && l.Name == "_" && obj(pass, r) == acq.rel {
						continue
					}
					walk(st.Lhs[i], chain, errDepth)
					walk(st.Rhs[i], chain, errDepth)
				}
				return
			}
			for _, e := range st.Rhs {
				walk(e, chain, errDepth)
			}
			for _, e := range st.Lhs {
				walk(e, chain, errDepth)
			}
			return
		case *ast.IfStmt:
			walk(st.Init, chain, errDepth)
			guard := errDepth
			if acq.errObj != nil && mentions(pass, st.Cond, acq.errObj) {
				guard++
			} else {
				walk(st.Cond, chain, errDepth)
			}
			walk(st.Body, append(chain, st.Body), guard)
			if st.Else != nil {
				walk(st.Else, append(chain, st.Else), guard)
			}
			return
		case *ast.BlockStmt:
			inner := chain
			if len(chain) == 0 || chain[len(chain)-1] != st {
				inner = append(chain, st)
			}
			for _, s := range st.List {
				walk(s, inner, errDepth)
			}
			return
		case *ast.CaseClause:
			for _, e := range st.List {
				walk(e, chain, errDepth)
			}
			for _, s := range st.Body {
				walk(s, append(chain, st), errDepth)
			}
			return
		case *ast.CommClause:
			walk(st.Comm, append(chain, st), errDepth)
			for _, s := range st.Body {
				walk(s, append(chain, st), errDepth)
			}
			return
		}
		// Generic recursion for everything else, preserving the chain.
		children(n, func(c ast.Node) { walk(c, chain, errDepth) })
	}
	walk(body, nil, 0)

	if escaped {
		return
	}
	if len(releases) == 0 {
		pass.Reportf(acq.call.Pos(),
			"release func returned by %s is never called", acq.name)
		return
	}
	// A function that can fall off its end must have released by then:
	// model the closing brace as one more return at top level.
	if len(body.List) == 0 || !terminating(body.List[len(body.List)-1]) {
		returns = append(returns, ret{body.Rbrace, []ast.Node{body}, false})
	}

	for _, r := range returns {
		if r.errGuarded || covered(r.pos, r.chain, acquireChain, releases) {
			continue
		}
		pass.Reportf(r.pos,
			"pin from %s at %s is not released on this path; defer the release func",
			acq.name, pass.Fset.Position(acq.call.Pos()))
	}
}

// covered reports whether some release event dominates (by block
// structure) a return at pos with the given block chain. Two shapes
// qualify: the release's block chain is a prefix of the return's
// (statements of a block run in order, so the release runs first), or
// the release sits in the acquire's own block after it — straight-line
// relative to the acquire, as in a loop body that acquires and
// releases each iteration — in which case any later return is past a
// completed acquire/release pair.
func covered(pos token.Pos, chain, acquireChain []ast.Node, releases []event) bool {
	for _, rel := range releases {
		if rel.pos >= pos {
			continue
		}
		if sameChain(rel.chain, acquireChain) {
			return true
		}
		if len(rel.chain) > len(chain) {
			continue
		}
		ok := true
		for i, b := range rel.chain {
			if chain[i] != b {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func sameChain(a, b []ast.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func clone(chain []ast.Node) []ast.Node {
	return append([]ast.Node(nil), chain...)
}

func isRelCall(pass *analysis.Pass, call *ast.CallExpr, rel types.Object) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && rel != nil && obj(pass, id) == rel
}

func mentions(pass *analysis.Pass, e ast.Expr, o types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && obj(pass, id) == o {
			found = true
		}
		return !found
	})
	return found
}

// terminating reports whether s obviously ends the flow of its block
// (return, panic, or an unconditional forever-loop).
func terminating(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.ForStmt:
		return st.Cond == nil && !hasBreak(st.Body)
	}
	return false
}

func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BranchStmt:
			if n.(*ast.BranchStmt).Tok == token.BREAK {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false // break belongs to an inner statement
		}
		return !found
	})
	return found
}

// walkShallow visits n's subtree without descending into nested
// function literals.
func walkShallow(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			f(m)
		}
		return true
	})
}

// children invokes f on each direct child node of n.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			f(m)
		}
		return false
	})
}
