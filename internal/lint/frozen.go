package lint

import (
	"go/ast"
	"go/types"
)

// NewFrozenMutation builds the analyzer enforcing the snapshot path's
// core invariant: a frozen store's representation is immutable. It has
// two halves.
//
// Inside package store (storePkg), any write to a field of Store or
// Dict reached through a receiver, parameter, or field — assignments,
// map stores, appends, ++/--, range-clears — must sit in Freeze,
// Ingest, or seal (the methods that build a store's frozen
// representation: seal derives the directories and statistics that
// Freeze, Merge and Rehydrate all end in) or in a function annotated
// `// sp2b:mutates-store`, which marks the reviewed loading-phase
// helpers (AddEncoded, Intern, ...). Writes through
// locally-constructed values are exempt: constructors own their value,
// which is how Merge and Rehydrate build a new store.
//
// Everywhere, writing through the aliasing accessors is flagged:
// `st.Triples()[i] = ...`, `st.Index(o)[i] = ...`, `d.Terms()[i] = ...`
// and `rng.Rows[i] = ...` (or `rng.Delta[i]`) mutate the frozen arrays
// every concurrent reader shares. (Aliasing through an intermediate variable is not
// tracked; the accessors' doc comments still forbid it.)
//
// The storePkg parameter exists so golden tests can point the analyzer
// at a fixture package shaped like the real store.
func NewFrozenMutation(storePkg string) *Analyzer {
	a := &Analyzer{
		Name: "frozenmutation",
		Doc:  "frozen store state may only be written by Freeze/Ingest/seal or sp2b:mutates-store functions",
	}
	a.Run = func(pass *Pass) error { return runFrozenMutation(pass, storePkg) }
	return a
}

// frozenBuilders are allowed to write store fields by name: the three
// methods that build a store's frozen representation in place.
var frozenBuilders = map[string]bool{"Freeze": true, "Ingest": true, "seal": true}

// aliasedAccessors return slices aliasing the frozen representation;
// writing through them corrupts every concurrent reader.
var aliasedAccessors = map[string]map[string]bool{
	"Store": {"Triples": true, "Index": true},
	"Dict":  {"Terms": true},
}

func runFrozenMutation(pass *Pass, storePkg string) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inStore := pass.Pkg.Path == storePkg
			_, annotated := pass.FuncDirective(fd, "mutates-store")
			allowed := !inStore || frozenBuilders[fd.Name.Name] || annotated
			locals := localStoreVars(pass.Pkg.Info, fd, storePkg)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						checkFrozenWrite(pass, fd, storePkg, lhs, allowed, locals)
					}
				case *ast.IncDecStmt:
					checkFrozenWrite(pass, fd, storePkg, x.X, allowed, locals)
				}
				return true
			})
		}
	}
	return nil
}

// checkFrozenWrite inspects one write target.
func checkFrozenWrite(pass *Pass, fd *ast.FuncDecl, storePkg string, lhs ast.Expr, allowed bool, locals map[types.Object]bool) {
	info := pass.Pkg.Info

	// Everywhere: writes through aliasing accessor calls or an IndexRange's runs.
	if base, name, ok := aliasedWriteTarget(info, storePkg, lhs); ok {
		pass.Reportf(lhs.Pos(),
			"write through %s.%s mutates the frozen store's shared arrays (callers must not mutate the returned slice)",
			base, name)
		return
	}

	// Package store only: field writes outside the builder functions.
	if allowed {
		return
	}
	sel, field := storeFieldTarget(info, storePkg, lhs)
	if sel == nil {
		return
	}
	if o := rootObj(info, sel); o != nil && locals[o] {
		return // locally-constructed value: the constructor owns it
	}
	pass.Reportf(lhs.Pos(),
		"%s writes %s field %s outside Freeze/Ingest/seal; annotate the function with `// sp2b:mutates-store <why>` if this is a reviewed loading-phase write",
		funcName(fd), field.recvName, field.fieldName)
}

type storeField struct {
	recvName  string
	fieldName string
}

// storeFieldTarget unwraps a write target down to a selector on a
// Store/Dict value from storePkg, looking through indexing and stars:
// s.triples, s.indexes[ord], s.predCount[k], in.base.terms.
func storeFieldTarget(info *types.Info, storePkg string, lhs ast.Expr) (*ast.SelectorExpr, storeField) {
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.SelectorExpr:
			s, ok := info.Selections[x]
			if !ok || s.Kind() != types.FieldVal {
				return nil, storeField{}
			}
			recv, ok := namedType(s.Recv())
			if !ok || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != storePkg {
				return nil, storeField{}
			}
			name := recv.Obj().Name()
			if name != "Store" && name != "Dict" {
				return nil, storeField{}
			}
			return x, storeField{recvName: name, fieldName: s.Obj().Name()}
		default:
			return nil, storeField{}
		}
	}
}

// aliasedWriteTarget recognizes `accessor()[i] = ...`,
// `rng.Rows[i] = ...` and `rng.Delta[i] = ...` write targets.
func aliasedWriteTarget(info *types.Info, storePkg string, lhs ast.Expr) (base, name string, ok bool) {
	idx, isIdx := lhs.(*ast.IndexExpr)
	if !isIdx {
		return "", "", false
	}
	switch x := unparen(idx.X).(type) {
	case *ast.CallExpr:
		m, _, okSel := selCallee(info, x)
		if !okSel {
			return "", "", false
		}
		sig, okSig := m.Type().(*types.Signature)
		if !okSig || sig.Recv() == nil {
			return "", "", false
		}
		recv, okN := namedType(sig.Recv().Type())
		if !okN || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != storePkg {
			return "", "", false
		}
		if aliasedAccessors[recv.Obj().Name()][m.Name()] {
			return recv.Obj().Name(), m.Name() + "()", true
		}
	case *ast.SelectorExpr:
		s, okSel := info.Selections[x]
		if !okSel || s.Kind() != types.FieldVal || s.Obj().Name() != "Rows" && s.Obj().Name() != "Delta" {
			return "", "", false
		}
		if recv, okN := namedType(s.Recv()); okN && recv.Obj().Name() == "IndexRange" &&
			recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == storePkg {
			return "IndexRange", s.Obj().Name(), true
		}
	}
	return "", "", false
}
