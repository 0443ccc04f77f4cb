// Package algebra translates parsed SPARQL queries into a logical algebra
// following the semantics of Pérez, Arenas and Gutierrez ("Semantics and
// Complexity of SPARQL", reference [4] of the paper) as adopted by the
// SPARQL 1.0 recommendation: Join, LeftJoin (OPTIONAL), Union, Filter and
// the solution modifiers Project, Distinct, OrderBy and Slice.
//
// The one subtle rule — essential for the closed-world-negation queries Q6
// and Q7 — is that a FILTER appearing directly inside an OPTIONAL group
// becomes the *condition of the LeftJoin* rather than a filter over the
// inner pattern, which is what lets it reference variables bound outside
// the OPTIONAL.
package algebra

import (
	"fmt"
	"sort"
	"strings"

	"sp2bench/internal/sparql"
)

// Node is a logical plan operator.
type Node interface {
	// Vars returns the variables the node can bind, sorted.
	Vars() []string
	String() string
}

// BGPNode is a basic graph pattern: a sequence of triple patterns joined
// on their shared variables.
type BGPNode struct {
	Patterns []sparql.TriplePattern
}

// JoinNode joins two sub-plans on their shared variables.
type JoinNode struct {
	Left, Right Node
}

// LeftJoinNode implements OPTIONAL: solutions of Left extended by
// compatible solutions of Right satisfying Cond, or kept as-is when no
// such extension exists. Cond may be nil (always true).
type LeftJoinNode struct {
	Left, Right Node
	Cond        sparql.Expr
}

// UnionNode concatenates the solutions of both sides.
type UnionNode struct {
	Left, Right Node
}

// FilterNode keeps solutions for which Cond evaluates to true.
type FilterNode struct {
	Input Node
	Cond  sparql.Expr
}

// ProjectNode restricts solutions to Vars.
type ProjectNode struct {
	Input   Node
	Columns []string
}

// DistinctNode removes duplicate solutions.
type DistinctNode struct {
	Input Node
}

// OrderNode sorts solutions.
type OrderNode struct {
	Input Node
	Conds []sparql.OrderCondition
}

// SliceNode applies OFFSET/LIMIT (-1 = absent).
type SliceNode struct {
	Input         Node
	Offset, Limit int
}

func (n *BGPNode) Vars() []string {
	set := map[string]bool{}
	for _, p := range n.Patterns {
		for _, v := range p.Vars() {
			set[v] = true
		}
	}
	return sortedKeys(set)
}

func (n *JoinNode) Vars() []string     { return unionVars(n.Left.Vars(), n.Right.Vars()) }
func (n *LeftJoinNode) Vars() []string { return unionVars(n.Left.Vars(), n.Right.Vars()) }
func (n *UnionNode) Vars() []string    { return unionVars(n.Left.Vars(), n.Right.Vars()) }
func (n *FilterNode) Vars() []string   { return n.Input.Vars() }
func (n *ProjectNode) Vars() []string {
	out := append([]string(nil), n.Columns...)
	sort.Strings(out)
	return out
}
func (n *DistinctNode) Vars() []string { return n.Input.Vars() }
func (n *OrderNode) Vars() []string    { return n.Input.Vars() }
func (n *SliceNode) Vars() []string    { return n.Input.Vars() }

func (n *BGPNode) String() string {
	parts := make([]string, len(n.Patterns))
	for i, p := range n.Patterns {
		parts[i] = p.String()
	}
	return "BGP(" + strings.Join(parts, " ") + ")"
}

func (n *JoinNode) String() string {
	return "Join(" + n.Left.String() + ", " + n.Right.String() + ")"
}

func (n *LeftJoinNode) String() string {
	cond := "true"
	if n.Cond != nil {
		cond = n.Cond.String()
	}
	return "LeftJoin(" + n.Left.String() + ", " + n.Right.String() + ", " + cond + ")"
}

func (n *UnionNode) String() string {
	return "Union(" + n.Left.String() + ", " + n.Right.String() + ")"
}

func (n *FilterNode) String() string {
	return "Filter(" + n.Cond.String() + ", " + n.Input.String() + ")"
}

func (n *ProjectNode) String() string {
	return "Project(" + strings.Join(n.Columns, " ") + ", " + n.Input.String() + ")"
}

func (n *DistinctNode) String() string { return "Distinct(" + n.Input.String() + ")" }

func (n *OrderNode) String() string {
	parts := make([]string, len(n.Conds))
	for i, c := range n.Conds {
		if c.Desc {
			parts[i] = "DESC(?" + c.Var + ")"
		} else {
			parts[i] = "?" + c.Var
		}
	}
	return "Order(" + strings.Join(parts, " ") + ", " + n.Input.String() + ")"
}

func (n *SliceNode) String() string {
	return fmt.Sprintf("Slice(%d, %d, %s)", n.Offset, n.Limit, n.Input.String())
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func unionVars(a, b []string) []string {
	set := map[string]bool{}
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		set[v] = true
	}
	return sortedKeys(set)
}

// Translate converts a parsed query into a logical plan. The returned plan
// ends, from the inside out, with Order, Project, Distinct and Slice as
// prescribed by SPARQL 1.0 §12.2.1's modifier ordering. For ASK queries
// the plan is just the pattern translation (the engine stops at the first
// solution).
func Translate(q *sparql.Query) Node {
	node := translateGroup(q.Where)
	if q.Form == sparql.FormAsk {
		return node
	}
	if len(q.OrderBy) > 0 {
		node = &OrderNode{Input: node, Conds: q.OrderBy}
	}
	cols := q.Vars
	if len(cols) == 0 { // SELECT *
		cols = node.Vars()
	}
	node = &ProjectNode{Input: node, Columns: cols}
	if q.Distinct {
		node = &DistinctNode{Input: node}
	}
	if q.Offset >= 0 || q.Limit >= 0 {
		node = &SliceNode{Input: node, Offset: q.Offset, Limit: q.Limit}
	}
	return node
}

// translateGroup implements the group graph pattern translation: elements
// are combined left to right with Join (LeftJoin for OPTIONALs) and the
// group's filters apply to the completed group.
func translateGroup(g *sparql.GroupGraphPattern) Node {
	var node Node
	join := func(n Node) {
		if node == nil {
			node = n
		} else {
			node = &JoinNode{Left: node, Right: n}
		}
	}
	for _, e := range g.Elements {
		switch el := e.(type) {
		case *sparql.BGP:
			join(&BGPNode{Patterns: el.Patterns})
		case *sparql.Group:
			join(translateGroup(el.Pattern))
		case *sparql.Union:
			join(&UnionNode{
				Left:  translateGroup(el.Left),
				Right: translateGroup(el.Right),
			})
		case *sparql.Optional:
			inner, cond := translateOptional(el.Pattern)
			if node == nil {
				// OPTIONAL with empty left side: a LeftJoin against the
				// unit solution, which survives alone when no match of
				// the inner pattern passes the condition.
				node = &BGPNode{}
			}
			node = &LeftJoinNode{Left: node, Right: inner, Cond: cond}
		}
	}
	if node == nil {
		node = &BGPNode{} // empty group: the unit solution
	}
	for _, f := range g.Filters {
		node = &FilterNode{Input: node, Cond: f}
	}
	return node
}

// translateOptional translates the group inside an OPTIONAL. Its top-level
// filters become the LeftJoin condition (conjoined); everything else
// translates normally.
func translateOptional(g *sparql.GroupGraphPattern) (Node, sparql.Expr) {
	stripped := &sparql.GroupGraphPattern{Elements: g.Elements}
	node := translateGroup(stripped)
	var cond sparql.Expr
	for _, f := range g.Filters {
		if cond == nil {
			cond = f
		} else {
			cond = &sparql.Binary{Op: sparql.OpAnd, Left: cond, Right: f}
		}
	}
	return node, cond
}
