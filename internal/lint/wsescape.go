package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// wsescape guards the workspace ownership rule (DESIGN.md §12) with full
// def-use tracking — the generalization of obsretain from one callback
// shape to arbitrary dataflow. The *core.Result returned by core.RunWS or
// fast.RunWS when a reusable workspace is passed (and by
// Workspace.StartRun) is workspace-owned: every slice it references is
// overwritten by that workspace's next run and recycled by PutWorkspace.
// Such a value may be consumed in place or deep-copied with Clone; it must
// not outlive the function that ran the simulation.
//
// The analyzer seeds a taint lattice at those call sites and propagates it
// through the function's reaching definitions (internal/lint IR): locals
// assigned from a tainted value, its sliceful fields, reslices, composite
// literals embedding one, and range bindings over tainted containers are
// tainted; Result.Clone and scalar reads launder. A violation is any point
// where a tainted value can outlive the run:
//
//   - a store to a field, package-level variable, or dereferenced pointer
//     target (anything obsretain's locality rule calls non-local);
//   - a store into a container element (m[k] = res, arr[i] = res.Flow) —
//     even a local container accumulates aliases of the same reused
//     buffers, one per iteration, all torn by the next run;
//   - a channel send;
//   - a goroutine launched with a tainted argument or capturing a tainted
//     local (the goroutine races the workspace's next run);
//   - a return of a tainted value in a function that has released the
//     workspace (a core.PutWorkspace call — deferred, or reaching the
//     return in the CFG): the caller receives pooled memory.
//
// Passing a tainted value to an ordinary (synchronous) call is allowed —
// that is consumption, the batch.Run(consume) pattern.
var wsescapeAnalyzer = &Analyzer{
	Name:  "wsescape",
	Doc:   "workspace-owned simulation result outlives the workspace (store/send/goroutine/return past PutWorkspace without Clone)",
	Scope: func(modPath, pkgPath string) bool { return true },
	Run:   runWsescape,
}

func runWsescape(p *Pass) {
	w := &wsescapeRun{p: p}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w.checkFunc(fd)
		}
	}
}

type wsescapeRun struct {
	p *Pass
}

// enginePkgs are the module-relative packages whose RunWS defines the
// workspace-ownership contract.
func (w *wsescapeRun) isEnginePkg(path string) bool {
	mod := w.p.Module.Path
	return path == mod+"/internal/core" || path == mod+"/internal/fast"
}

// seedCall reports whether call produces a workspace-owned result in its
// first return value: {core,fast}.RunWS with a non-nil workspace argument,
// or a Workspace.StartRun method call.
func (w *wsescapeRun) seedCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "RunWS":
		if qual, ok := sel.X.(*ast.Ident); ok && w.isEnginePkg(w.p.pkgNameOf(qual)) {
			// The 4th argument is the workspace; a literal nil means the
			// engine allocates a private one and the caller owns the result.
			if len(call.Args) == 4 && !isNilExpr(call.Args[3]) {
				return true
			}
		}
	case "StartRun":
		if isWorkspacePtr(w.p.TypeOf(sel.X), w.p.Module.Path) {
			return true
		}
	}
	return false
}

// isWorkspacePtr reports whether t is *core.Workspace of this module.
func isWorkspacePtr(t types.Type, modPath string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Workspace" && obj.Pkg() != nil &&
		obj.Pkg().Path() == modPath+"/internal/core"
}

func isNilExpr(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isPutWorkspace reports whether call is core.PutWorkspace(...).
func (w *wsescapeRun) isPutWorkspace(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "PutWorkspace" {
		return false
	}
	qual, ok := sel.X.(*ast.Ident)
	return ok && w.p.pkgNameOf(qual) == w.p.Module.Path+"/internal/core"
}

func (w *wsescapeRun) checkFunc(fd *ast.FuncDecl) {
	// Cheap pre-scan: functions with no seed call need no IR at all — this
	// is what keeps the tree-wide pass fast.
	hasSeed := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && w.seedCall(call) {
			hasSeed = true
			return false
		}
		return !hasSeed
	})
	if !hasSeed {
		return
	}

	ir := w.p.IR(fd)
	val := ir.SolveDefs(func(d *Def, lookup func(*ast.Ident) bool) bool {
		if d.Rhs == nil || d.Kind == DefParam || d.Kind == DefIncDec {
			return false
		}
		if call, ok := ast.Unparen(d.Rhs).(*ast.CallExpr); ok && w.seedCall(call) {
			// Only the *Result (slot 0) of `res, err := RunWS(...)` is owned.
			return d.TupleIndex == 0
		}
		tainted := w.taintedExpr(d.Rhs, lookup)
		if !tainted {
			return false
		}
		// A range binding stays tainted only if the bound element itself
		// retains memory (ranging over a []Segment yields sliceful Segment
		// values; ranging over Flow yields clean float64s).
		if d.Kind == DefDecl {
			return d.Obj.Type() != nil && holdsSlices(d.Obj.Type(), make(map[types.Type]bool))
		}
		return tainted
	})

	// Collect PutWorkspace release points for the return check.
	var putStmts []ast.Stmt
	deferredPut := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if w.isPutWorkspace(n.Call) {
				deferredPut = true
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && w.isPutWorkspace(call) {
				putStmts = append(putStmts, n)
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				// Multi-value RHS: plain ident targets are tracked as defs;
				// anything else is out of the tracked shapes.
				return true
			}
			lookup := ir.LookupAt(val, n)
			for i, rhs := range n.Rhs {
				if !w.taintedExpr(rhs, lookup) {
					continue
				}
				lhs := n.Lhs[i]
				if isBlankOrPlainLocal(w.p, ir, lhs) {
					continue // tracked by the taint lattice, not an escape
				}
				kind := "non-local target"
				if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					kind = "container element"
				}
				w.p.Reportf(n.Pos(), "%s stores workspace-owned %s into %s (%s): the slices it references are overwritten by the workspace's next run — use Clone() or copy the fields you need, or //rrlint:ignore wsescape <reason>",
					fd.Name.Name, w.p.ExprString(rhs), w.p.ExprString(lhs), kind)
			}
		case *ast.SendStmt:
			lookup := ir.LookupAt(val, n)
			if w.taintedExpr(n.Value, lookup) {
				w.p.Reportf(n.Pos(), "%s sends workspace-owned %s on a channel: the receiver outlives this run's buffers — send a Clone()",
					fd.Name.Name, w.p.ExprString(n.Value))
			}
		case *ast.GoStmt:
			lookup := ir.LookupAt(val, w.enclosing(ir, n.Pos()))
			for _, arg := range n.Call.Args {
				if w.taintedExpr(arg, lookup) {
					w.p.Reportf(n.Pos(), "goroutine in %s receives workspace-owned %s: it races the workspace's next run — pass a Clone()",
						fd.Name.Name, w.p.ExprString(arg))
				}
			}
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				w.checkGoCapturesTainted(fd, ir, val, n, fl)
			}
		case *ast.ReturnStmt:
			if !deferredPut && len(putStmts) == 0 {
				return true
			}
			released := deferredPut
			for _, ps := range putStmts {
				if ir.StmtReaches(ps, n) {
					released = true
					break
				}
			}
			if !released {
				return true
			}
			lookup := ir.LookupAt(val, n)
			for _, res := range n.Results {
				if w.taintedExpr(res, lookup) {
					w.p.Reportf(n.Pos(), "%s returns workspace-owned %s past core.PutWorkspace: the caller receives pooled memory already back in circulation — return a Clone()",
						fd.Name.Name, w.p.ExprString(res))
				}
			}
		}
		return true
	})
}

// checkGoCapturesTainted flags free variables of a goroutine closure that
// are tainted at the launch point.
func (w *wsescapeRun) checkGoCapturesTainted(fd *ast.FuncDecl, ir *FuncIR, val map[*Def]bool, g *ast.GoStmt, fl *ast.FuncLit) {
	lookup := ir.LookupAt(val, w.enclosing(ir, g.Pos()))
	reported := make(map[types.Object]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.p.ObjectOf(id)
		if obj == nil || reported[obj] || !ir.IsLocal(obj) {
			return true
		}
		// Declared inside the closure → not a capture.
		if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
			return true
		}
		if lookup(id) && holdsSlices(obj.Type(), make(map[types.Type]bool)) {
			reported[obj] = true
			w.p.Reportf(g.Pos(), "goroutine in %s captures workspace-owned %s: it races the workspace's next run — capture a Clone()",
				fd.Name.Name, id.Name)
		}
		return true
	})
}

// enclosing anchors a position to the IR statement containing it (the go
// statement itself is recorded, so this is exact for launch points).
func (w *wsescapeRun) enclosing(ir *FuncIR, pos token.Pos) ast.Stmt {
	return ir.EnclosingStmt(pos)
}

// taintedExpr reports whether evaluating e may yield a value aliasing
// workspace-owned memory, resolving identifier taint through lookup.
// Mirrors obsretain's retention logic, extended with laundering: Clone
// calls (and every other ordinary call) produce fresh memory, and values
// whose type retains no slices cannot alias anything.
func (w *wsescapeRun) taintedExpr(e ast.Expr, lookup func(*ast.Ident) bool) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return w.taintedExpr(e.X, lookup)
	case *ast.UnaryExpr:
		return w.taintedExpr(e.X, lookup)
	case *ast.StarExpr:
		return w.taintedExpr(e.X, lookup)
	case *ast.Ident:
		if !lookup(e) {
			return false
		}
		t := w.p.TypeOf(e)
		return t == nil || holdsSlices(t, make(map[types.Type]bool))
	case *ast.SelectorExpr:
		if !w.taintedExpr(e.X, lookup) {
			return false
		}
		t := w.p.TypeOf(e)
		return t == nil || holdsSlices(t, make(map[types.Type]bool))
	case *ast.IndexExpr:
		if !w.taintedExpr(e.X, lookup) {
			return false
		}
		t := w.p.TypeOf(e)
		return t == nil || holdsSlices(t, make(map[types.Type]bool))
	case *ast.SliceExpr:
		return w.taintedExpr(e.X, lookup)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if w.taintedExpr(elt, lookup) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if w.seedCall(e) {
			return true
		}
		// append(dst, x) retains x (and aliases dst); append(dst, src...)
		// copies elements — the sanctioned idiom — but still aliases dst.
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltinObj(w.p.ObjectOf(id)) {
			if e.Ellipsis != token.NoPos {
				return len(e.Args) > 0 && w.taintedExpr(e.Args[0], lookup)
			}
			for _, a := range e.Args {
				if w.taintedExpr(a, lookup) {
					return true
				}
			}
			return false
		}
		// Every other call — Clone() above all — yields fresh memory.
		return false
	case *ast.TypeAssertExpr:
		return w.taintedExpr(e.X, lookup)
	default:
		return false
	}
}

// isBlankOrPlainLocal reports whether lhs is `_` or a plain function-local
// identifier — the targets the taint lattice tracks instead of flagging.
func isBlankOrPlainLocal(p *Pass, ir *FuncIR, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	obj := p.ObjectOf(id)
	return obj != nil && ir.IsLocal(obj)
}
