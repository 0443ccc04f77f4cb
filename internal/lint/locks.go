package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDiscipline enforces the mixed-update locking contract: the
// sorted-array store rebuilds its indexes in place on update, so a
// store shared across goroutines may only be mutated by a function
// that declares exclusive access (the MVCC store's writer mutex, or a
// construction-time transfer of ownership like mvcc.New). The
// analyzer checks annotations, not lock acquisition order:
//
//   - A call to a store-mutating method (see mutatingStoreMethods) on a
//     store the function does not own — a parameter, struct field, or
//     package variable rather than a local it constructed — must sit in
//     a function annotated `// sp2b:locks=write`.
//   - A function annotated `// sp2b:locks=read` must not call mutating
//     store methods, must not acquire a write lock (Lock on a Mutex or
//     RWMutex), and must not call a same-package function annotated
//     `// sp2b:locks=write` (a read→write upgrade deadlocks).
//
// Locally-constructed stores are exempt because they are single-owner
// until published; sharing them with goroutines is goroutinecleanup's
// domain.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "store mutations on shared stores require a sp2b:locks=write annotation",
	Run:  runLockDiscipline,
}

// mutatingStoreMethods are the Store and Dict methods that write the
// Store's or its Dict's state, unexported ones (seal) included. The
// table is kept in sync with the frozenmutation analyzer by
// TestMutatingStoreMethodsInSync, which derives the set from package
// store's source.
var mutatingStoreMethods = map[string]map[string]bool{
	"Store": {
		"Add": true, "AddEncoded": true, "AddEncodedAll": true,
		"Load": true, "Ingest": true,
		"Freeze": true, "seal": true,
	},
	"Dict": {
		"Intern": true, "absorb": true, "canonicalize": true,
	},
}

// mutatingFuncs are cross-package functions that mutate a store passed
// as an argument (argument index given). engine.New freezes a store
// that is still loading, which is a write.
var mutatingFuncs = map[string]int{
	"sp2bench/internal/engine.New": 0,
}

func runLockDiscipline(pass *Pass) error {
	if pass.Pkg.Path == storePath {
		return nil // the store mutating itself is frozenmutation's domain
	}
	info := pass.Pkg.Info

	// writeAnnotated: same-package functions declared sp2b:locks=write,
	// for the read-calls-write check.
	writeAnnotated := map[*types.Func]bool{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if v, ok := pass.FuncDirective(fd, "locks"); ok && v == "write" {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					writeAnnotated[fn] = true
				}
			}
		}
	}

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			level, _ := pass.FuncDirective(fd, "locks")
			locals := localStoreVars(info, fd, storePath)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkLockCall(pass, fd, level, call, locals, writeAnnotated)
				return true
			})
		}
	}
	return nil
}

// localStoreVars collects store-typed locals the function constructs
// itself — assigned from a call or composite literal inside the body,
// not aliased from a field or parameter: they are single-owner, so
// unlocked mutation is fine. pkgPath names the package defining Store
// and Dict (the fixture package in golden tests, storePath otherwise).
func localStoreVars(info *types.Info, fd *ast.FuncDecl, pkgPath string) map[types.Object]bool {
	locals := map[types.Object]bool{}
	constructed := func(rhs ast.Expr) bool {
		switch r := unparen(rhs).(type) {
		case *ast.CallExpr, *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if r.Op == token.AND {
				_, ok := r.X.(*ast.CompositeLit)
				return ok
			}
		}
		return false
	}
	mark := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || !constructed(rhs) {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if isPkgType(obj.Type(), pkgPath, "Store") || isPkgType(obj.Type(), pkgPath, "Dict") {
			locals[obj] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Rhs) == 1 {
			for _, lhs := range as.Lhs {
				mark(lhs, as.Rhs[0])
			}
			return true
		}
		for i, lhs := range as.Lhs {
			if i < len(as.Rhs) {
				mark(lhs, as.Rhs[i])
			}
		}
		return true
	})
	return locals
}

func checkLockCall(pass *Pass, fd *ast.FuncDecl, level string, call *ast.CallExpr, locals map[types.Object]bool, writeAnnotated map[*types.Func]bool) {
	info := pass.Pkg.Info

	// Plain function calls: the cross-package mutator table and the
	// same-package read→write upgrade check.
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		if arg, ok := mutatingFuncs[fn.Pkg().Path()+"."+fn.Name()]; ok && fn.Type().(*types.Signature).Recv() == nil {
			if len(call.Args) > arg && !ownedStore(info, call.Args[arg], locals) {
				if level != "write" {
					pass.Reportf(call.Pos(),
						"%s mutates a shared store via %s.%s but %s is not annotated `// sp2b:locks=write`",
						funcName(fd), fn.Pkg().Name(), fn.Name(), funcName(fd))
				}
			}
			return
		}
		if level == "read" && writeAnnotated[fn] {
			pass.Reportf(call.Pos(),
				"%s is annotated sp2b:locks=read but calls %s, which is annotated sp2b:locks=write (read→write upgrade deadlocks)",
				funcName(fd), fn.Name())
			return
		}
	}

	m, recv, ok := selCallee(info, call)
	if !ok {
		return
	}

	// Read→write upgrade through a same-package method call.
	if level == "read" && writeAnnotated[m] {
		pass.Reportf(call.Pos(),
			"%s is annotated sp2b:locks=read but calls %s, which is annotated sp2b:locks=write (read→write upgrade deadlocks)",
			funcName(fd), m.Name())
		return
	}

	// Write-lock acquisition inside a read-annotated function.
	if level == "read" && m.Name() == "Lock" {
		if tv, ok := info.Types[recv]; ok &&
			(isPkgType(tv.Type, "sync", "RWMutex") || isPkgType(tv.Type, "sync", "Mutex")) {
			pass.Reportf(call.Pos(),
				"%s is annotated sp2b:locks=read but acquires a write lock", funcName(fd))
		}
		return
	}

	// Mutating store method calls.
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	recvType, ok := namedType(sig.Recv().Type())
	if !ok || recvType.Obj().Pkg() == nil || recvType.Obj().Pkg().Path() != storePath {
		return
	}
	if !mutatingStoreMethods[recvType.Obj().Name()][m.Name()] {
		return
	}
	if level == "read" {
		pass.Reportf(call.Pos(),
			"%s is annotated sp2b:locks=read but calls store-mutating method %s.%s",
			funcName(fd), recvType.Obj().Name(), m.Name())
		return
	}
	if ownedStore(info, recv, locals) {
		return
	}
	if level != "write" {
		pass.Reportf(call.Pos(),
			"call to store-mutating method %s.%s on a shared store: annotate %s with `// sp2b:locks=write` and hold the write lock, or construct the store locally",
			recvType.Obj().Name(), m.Name(), funcName(fd))
	}
}

// calleeFunc resolves a non-method call to its function object.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		// pkg.Func (not a method: no selection entry).
		if _, isMethod := info.Selections[fun]; isMethod {
			return nil
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ownedStore reports whether the store expression roots in a local the
// function constructed itself.
func ownedStore(info *types.Info, e ast.Expr, locals map[types.Object]bool) bool {
	o := rootObj(info, e)
	return o != nil && locals[o]
}
