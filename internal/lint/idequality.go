package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// IDEquality polices the distinction store.ID exists to make visible:
// ID equality is *term identity* inside one dictionary, strictly finer
// than SPARQL value equality ("1"^^xsd:integer and "01"^^xsd:integer
// are distinct IDs but equal values). Joins over shared variables are
// term-identity and may compare IDs; anything implementing FILTER
// `=`/`!=` semantics must resolve terms and compare values
// (algebra.EqualTerms) or bucket by a canonical key (engine.valueKey).
// PR 5's hashed-block probing bug was exactly an ID comparison on this
// path.
//
// Functions that implement value-comparison semantics declare it with
// `// sp2b:valuecmp` in their doc comment. Inside such a function the
// analyzer flags
//
//   - `==`/`!=` between two store.ID operands, and
//   - map types keyed by store.ID in composite literals and make calls
//     (an ID-keyed hash table collapses by identity, not value),
//
// unless the line carries `// sp2b:idcmp=ok <why>` — the reviewed
// identity fast path (identical IDs *are* value-equal; only the
// not-equal branch must fall through to term comparison).
var IDEquality = &Analyzer{
	Name: "idequality",
	Doc:  "sp2b:valuecmp functions must not compare dictionary IDs with ==/!=",
	Run:  runIDEquality,
}

func runIDEquality(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := pass.FuncDirective(fd, "valuecmp"); !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.BinaryExpr:
					if x.Op != token.EQL && x.Op != token.NEQ {
						return true
					}
					if !isStoreID(info, x.X) || !isStoreID(info, x.Y) {
						return true
					}
					if pass.Suppressed(x.Pos(), "idcmp") {
						return true
					}
					pass.Reportf(x.Pos(),
						"%s is annotated sp2b:valuecmp but compares dictionary IDs with %s: IDs are term identity, not SPARQL value equality — compare resolved terms (algebra.EqualTerms) or bucket by a canonical key, or suppress a reviewed identity fast path with `// sp2b:idcmp=ok <why>`",
						funcName(fd), x.Op)
				case *ast.MapType:
					kt, ok := info.Types[x.Key]
					if !ok || !isPkgType(kt.Type, storePath, "ID") {
						return true
					}
					if pass.Suppressed(x.Pos(), "idcmp") {
						return true
					}
					pass.Reportf(x.Pos(),
						"%s is annotated sp2b:valuecmp but builds a map keyed by store.ID: an ID-keyed table groups by term identity, not value — key by a canonical value key (engine.valueKey) instead",
						funcName(fd))
				}
				return true
			})
		}
	}
	return nil
}

// isStoreID reports whether the expression is a non-constant value of
// type store.ID. Constants are excluded deliberately: `id == 0` tests
// the unbound sentinel, a presence check rather than a cross-term
// comparison. (go/types records the converted type for the literal, so
// constancy — tv.Value — is the reliable signal, not untypedness.)
func isStoreID(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	return isPkgType(tv.Type, storePath, "ID")
}
