// Package sparql implements a lexer, AST and recursive-descent parser for
// the SPARQL 1.0 subset exercised by the SP2Bench queries: SELECT and ASK
// forms, basic graph patterns, OPTIONAL, UNION, FILTER (with the
// comparison, logical and bound() operators), and the solution modifiers
// DISTINCT, ORDER BY, LIMIT and OFFSET.
//
// The grammar follows the W3C SPARQL 1.0 recommendation closely enough
// that the paper's appendix queries parse verbatim; the deliberate
// omissions match the paper's own scoping (no CONSTRUCT/DESCRIBE, no
// aggregation, no property paths — none of which exist in SPARQL 1.0
// anyway).
package sparql

import (
	"fmt"
	"slices"
	"strings"

	"sp2bench/internal/rdf"
)

// Form is the query form (SELECT or ASK; the paper's query set uses only
// these two, arguing CONSTRUCT/DESCRIBE are post-processing over SELECT).
type Form int

const (
	// FormSelect retrieves variable bindings.
	FormSelect Form = iota
	// FormAsk reports whether at least one binding exists.
	FormAsk
)

func (f Form) String() string {
	if f == FormAsk {
		return "ASK"
	}
	if n := formName(f); n != "" {
		return n
	}
	return "SELECT"
}

// Query is a parsed SPARQL query.
type Query struct {
	Form     Form
	Distinct bool
	// Vars lists the projection in SELECT order; empty means "*". For
	// DESCRIBE queries it lists the described variables.
	Vars []string
	// Where is nil only for pattern-less DESCRIBE <iri> queries.
	Where   *GroupGraphPattern
	OrderBy []OrderCondition
	// Limit and Offset are -1 when absent.
	Limit  int
	Offset int
	// Prefixes holds the prologue's prefix declarations (after merging
	// with the caller-supplied defaults).
	Prefixes map[string]string

	// Extension fields (see extensions.go).

	// Template holds the CONSTRUCT template.
	Template []TriplePattern
	// DescribeTerms holds the fixed terms of a DESCRIBE query.
	DescribeTerms []rdf.Term
	// Aggregates holds the `(FUNC(?v) AS ?alias)` projection items.
	Aggregates []Aggregate
	// GroupBy holds the grouping variables.
	GroupBy []string
}

// IsAggregate reports whether the query uses the aggregation extension.
func (q *Query) IsAggregate() bool {
	return len(q.Aggregates) > 0 || len(q.GroupBy) > 0
}

// OrderCondition is one ORDER BY key.
type OrderCondition struct {
	Var  string
	Desc bool
}

// TriplePattern is a triple whose components may be variables.
type TriplePattern struct {
	S, P, O PatternTerm
}

// String renders the pattern in SPARQL-ish syntax for diagnostics.
func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s .", tp.S, tp.P, tp.O)
}

// Vars returns the variable names used in the pattern, in S,P,O order,
// without duplicates. The planner calls it for every candidate pattern
// at every step, so it allocates one small slice and nothing else.
func (tp TriplePattern) Vars() []string {
	var out []string
	for _, pt := range [...]*PatternTerm{&tp.S, &tp.P, &tp.O} {
		if pt.IsVar && !slices.Contains(out, pt.Var) {
			if out == nil {
				out = make([]string, 0, 3)
			}
			out = append(out, pt.Var)
		}
	}
	return out
}

// PatternTerm is either a variable or a constant RDF term.
type PatternTerm struct {
	IsVar bool
	Var   string   // when IsVar
	Term  rdf.Term // when !IsVar
}

// Variable returns a variable pattern term.
func Variable(name string) PatternTerm { return PatternTerm{IsVar: true, Var: name} }

// Constant returns a constant pattern term.
func Constant(t rdf.Term) PatternTerm { return PatternTerm{Term: t} }

func (pt PatternTerm) String() string {
	if pt.IsVar {
		return "?" + pt.Var
	}
	return pt.Term.String()
}

// GroupGraphPattern is the content of one `{ ... }` block: an ordered list
// of elements (triple patterns, nested groups, OPTIONALs, UNIONs) plus the
// FILTER constraints that apply to the whole group (SPARQL 1.0 §5.2.2:
// filter scope is the group, regardless of position).
type GroupGraphPattern struct {
	Elements []Element
	Filters  []Expr
}

// Element is one syntactic element of a group graph pattern.
type Element interface {
	element()
	String() string
}

// BGP is a maximal run of adjacent triple patterns (a basic graph
// pattern); the parser coalesces adjacent patterns into one BGP.
type BGP struct {
	Patterns []TriplePattern
}

func (*BGP) element() {}

func (b *BGP) String() string {
	parts := make([]string, len(b.Patterns))
	for i, p := range b.Patterns {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ")
}

// Optional is an OPTIONAL { ... } element.
type Optional struct {
	Pattern *GroupGraphPattern
}

func (*Optional) element() {}

func (o *Optional) String() string { return "OPTIONAL { " + o.Pattern.String() + " }" }

// Union is a {A} UNION {B} (UNION is left-associative; chains become
// nested Unions).
type Union struct {
	Left, Right *GroupGraphPattern
}

func (*Union) element() {}

func (u *Union) String() string {
	return "{ " + u.Left.String() + " } UNION { " + u.Right.String() + " }"
}

// Group is a nested group graph pattern appearing as an element.
type Group struct {
	Pattern *GroupGraphPattern
}

func (*Group) element() {}

func (g *Group) String() string { return "{ " + g.Pattern.String() + " }" }

func (g *GroupGraphPattern) String() string {
	var parts []string
	for _, e := range g.Elements {
		parts = append(parts, e.String())
	}
	for _, f := range g.Filters {
		parts = append(parts, "FILTER ("+f.String()+")")
	}
	return strings.Join(parts, " ")
}

// Expr is a FILTER expression node.
type Expr interface {
	expr()
	String() string
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators in precedence groups (low to high): || &&, then
// comparisons.
const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNeq
	OpLt
	OpGt
	OpLeq
	OpGeq
)

var binaryOpNames = map[BinaryOp]string{
	OpOr: "||", OpAnd: "&&", OpEq: "=", OpNeq: "!=",
	OpLt: "<", OpGt: ">", OpLeq: "<=", OpGeq: ">=",
}

func (op BinaryOp) String() string { return binaryOpNames[op] }

// Binary is a binary expression.
type Binary struct {
	Op          BinaryOp
	Left, Right Expr
}

func (*Binary) expr() {}

func (b *Binary) String() string {
	return "(" + b.Left.String() + " " + b.Op.String() + " " + b.Right.String() + ")"
}

// Not is logical negation.
type Not struct {
	Inner Expr
}

func (*Not) expr() {}

func (n *Not) String() string { return "!" + n.Inner.String() }

// Bound is the bound(?v) builtin.
type Bound struct {
	Var string
}

func (*Bound) expr() {}

func (b *Bound) String() string { return "bound(?" + b.Var + ")" }

// VarExpr references a variable's bound value.
type VarExpr struct {
	Name string
}

func (*VarExpr) expr() {}

func (v *VarExpr) String() string { return "?" + v.Name }

// TermExpr is a constant RDF term in an expression.
type TermExpr struct {
	Term rdf.Term
}

func (*TermExpr) expr() {}

func (t *TermExpr) String() string { return t.Term.String() }

// ExprVars collects the variables mentioned by an expression.
func ExprVars(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *Binary:
			walk(n.Left)
			walk(n.Right)
		case *Not:
			walk(n.Inner)
		case *Bound:
			if !seen[n.Var] {
				seen[n.Var] = true
				out = append(out, n.Var)
			}
		case *VarExpr:
			if !seen[n.Name] {
				seen[n.Name] = true
				out = append(out, n.Name)
			}
		case *TermExpr:
		}
	}
	walk(e)
	return out
}
