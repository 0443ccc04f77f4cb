package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineCleanup mechanizes the PR 5 rule "ASK/LIMIT early exits must
// never leak workers": every `go` statement needs a reachable join. A
// spawn is accepted when the spawning function
//
//  1. calls Wait on a sync.WaitGroup (or errgroup.Group) itself,
//  2. receives from a channel the spawned goroutine sends on or closes
//     (the done-channel join, e.g. snapshot.GenerateStore), or
//  3. tracks the goroutine in a WaitGroup *field* whose Wait lives in
//     another method of the same type that is referenced somewhere in
//     the package — the vecParallel spawn/shutdown split, where the
//     compiled plan registers shutdown as a cleanup.
//
// Anything else must carry `// sp2b:leaks=ok <why>` on or above the
// `go` statement, which is a reviewed claim that the goroutine is
// otherwise bounded (e.g. it exits on a context every caller cancels).
var GoroutineCleanup = &Analyzer{
	Name: "goroutinecleanup",
	Doc:  "every go statement must have a reachable join or stop registration",
	Run:  runGoroutineCleanup,
}

// joinableField describes a sync.WaitGroup struct field that some
// method of the owning type Waits on.
type joinableField struct {
	waitMethod *types.Func
}

func runGoroutineCleanup(pass *Pass) error {
	info := pass.Pkg.Info

	// Package prepass: WaitGroup fields joined by a method, and every
	// method referenced anywhere (registration sites included).
	joined := map[*types.Var]joinableField{} // field -> the method that Waits on it
	methodRefs := map[*types.Func]bool{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if m, recv, ok := selCallee(info, x); ok && m.Name() == "Wait" {
						if fld := fieldVar(info, recv); fld != nil && isWaitable(fld.Type()) && fn != nil && fd.Recv != nil {
							joined[fld] = joinableField{waitMethod: fn}
						}
					}
				case *ast.Ident:
					if m, ok := info.Uses[x].(*types.Func); ok {
						methodRefs[m] = true
					}
				}
				return true
			})
		}
	}

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoStmts(pass, fd, joined, methodRefs)
		}
	}
	return nil
}

// fieldVar resolves expressions like b.workers to the struct field
// object, or nil when the expression is not a field selection.
func fieldVar(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

func checkGoStmts(pass *Pass, fd *ast.FuncDecl, joined map[*types.Var]joinableField, methodRefs map[*types.Func]bool) {
	info := pass.Pkg.Info

	var goStmts []*ast.GoStmt
	waits := false
	received := map[types.Object]bool{} // channels the function receives from
	addedFields := map[*types.Var]bool{}

	recordRecv := func(e ast.Expr) {
		if o := rootObj(info, e); o != nil {
			received[o] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			goStmts = append(goStmts, x)
		case *ast.CallExpr:
			if m, recv, ok := selCallee(info, x); ok {
				fld := fieldVar(info, recv)
				switch m.Name() {
				case "Wait":
					if tv, ok := info.Types[recv]; ok && isWaitable(tv.Type) {
						waits = true
					}
				case "Add":
					if fld != nil && isWaitable(fld.Type()) {
						addedFields[fld] = true
					}
				}
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				recordRecv(x.X)
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					recordRecv(x.X)
				}
			}
		}
		return true
	})

	for _, g := range goStmts {
		if waits {
			continue
		}
		if pass.Suppressed(g.Pos(), "leaks") {
			continue
		}
		if goroutineSignalsChan(info, g, received) {
			continue
		}
		if wgFieldJoined(addedFields, joined, methodRefs) {
			continue
		}
		pass.Reportf(g.Pos(),
			"goroutine in %s has no reachable join: add a WaitGroup/errgroup Wait, a done-channel receive, a registered shutdown method, or `// sp2b:leaks=ok <why>`",
			funcName(fd))
	}
}

// goroutineSignalsChan reports whether the go statement's function
// literal sends on or closes a channel object the spawner receives
// from.
func goroutineSignalsChan(info *types.Info, g *ast.GoStmt, received map[types.Object]bool) bool {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if o := rootObj(info, x.Chan); o != nil && received[o] {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				if o := rootObj(info, x.Args[0]); o != nil && received[o] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// wgFieldJoined reports whether any WaitGroup field the function Added
// to has a Wait method elsewhere on the type that the package actually
// wires up (references outside its own declaration — e.g. appending it
// to a compiled plan's cleanups).
func wgFieldJoined(added map[*types.Var]bool, joined map[*types.Var]joinableField, methodRefs map[*types.Func]bool) bool {
	for fld := range added {
		if j, ok := joined[fld]; ok && methodRefs[j.waitMethod] {
			return true
		}
	}
	return false
}
