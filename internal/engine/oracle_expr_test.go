package engine_test

// The oracle's value model: FILTER expressions, the ORDER BY order and
// the aggregates, written from their definitions (see oracle_test.go
// for why none of this calls the engine's or rdf.Term's code).
//
// Values. A literal is numeric when its datatype is one of xsd:integer,
// decimal, double, float, int, long and gYear, or it has none (a plain
// literal, with or without a language tag), and its lexical form is a
// decimal numeral: an optional sign, digits, and an optional fraction.
// Its value is the float64 strconv parses. A literal is a string when it
// has no datatype or the datatype xsd:string.
//
//   - `=` compares two numeric literals by value and two string literals
//     by lexical form; any other pair is equal exactly when it is the
//     same term. `!=` is its negation.
//   - `<`, `>`, `<=`, `>=` order two numeric literals by value and two
//     string literals by lexical form; anything else is a type error.
//   - The effective boolean value of xsd:boolean is "true" or "1", of a
//     string literal its being non-empty, of a numeric literal its being
//     non-zero; any other term is a type error.
//   - `&&` and `||` absorb an error when the other side decides the
//     result (false and true respectively); `!` and the comparisons
//     pass an error on, and a FILTER keeps a solution only when its
//     expression is true. An unbound variable is an error.
//
// Order (SPARQL §15.1): unbound, then blank nodes, then IRIs by their
// string, then literals — numeric ones by value before all others by
// lexical form. SPARQL leaves the order of terms this leaves equal open
// (blank nodes among themselves, "1" and "01"^^xsd:integer); the engine
// breaks those ties by lexical form, datatype and language tag, in that
// order, so only identical terms tie, and a later ORDER BY key decides
// between rows whose earlier keys are value-equal but different terms.
// MIN and MAX use the same order.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
)

// termInfo is what the value model reads of a term.
type termInfo struct {
	term    rdf.Term
	literal bool
	str     bool // a string literal
	isNum   bool
	num     float64
}

func infoOf(t rdf.Term) termInfo {
	in := termInfo{term: t, literal: t.Kind == rdf.KindLiteral}
	if !in.literal {
		return in
	}
	in.str = t.Datatype == "" || t.Datatype == rdf.XSDString
	switch t.Datatype {
	case "", rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble, rdf.XSDFloat, rdf.XSDInt, rdf.XSDLong, rdf.XSDGYear:
		if decimalNumeral(t.Value) {
			n, err := strconv.ParseFloat(t.Value, 64)
			in.num, in.isNum = n, err == nil
		}
	}
	return in
}

// decimalNumeral reports whether s is [+-]?(digits(.digits?)?|.digits).
func decimalNumeral(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	whole, frac, _ := strings.Cut(s, ".")
	digits := func(x string) bool { return strings.Trim(x, "0123456789") == "" }
	return digits(whole) && digits(frac) && len(whole)+len(frac) > 0
}

// val is an expression's value: a boolean, or a term by oracle ID.
type val struct {
	isBool, b bool
	id        int32
}

// filters reports whether every expression is true under mu.
func (e *eval) filters(fs []sparql.Expr, mu solution) bool {
	for _, f := range fs {
		if b, ok := e.ebv(f, mu); !ok || !b {
			return false
		}
	}
	return true
}

// expr evaluates x under mu; false reports a type error.
func (e *eval) expr(x sparql.Expr, mu solution) (val, bool) {
	switch x := x.(type) {
	case *sparql.VarExpr:
		id := mu[e.slot[x.Name]]
		return val{id: id}, id != 0
	case *sparql.TermExpr:
		return val{id: e.o.intern(x.Term)}, true
	case *sparql.Bound:
		return val{isBool: true, b: mu[e.slot[x.Var]] != 0}, true
	case *sparql.Not:
		b, ok := e.ebv(x.Inner, mu)
		return val{isBool: true, b: !b}, ok
	case *sparql.Binary:
		b, ok := e.binary(x, mu)
		return val{isBool: true, b: b}, ok
	}
	panic(fmt.Sprintf("oracle: unknown expression %T", x))
}

// ebv evaluates x under mu to its effective boolean value.
func (e *eval) ebv(x sparql.Expr, mu solution) (bool, bool) {
	v, ok := e.expr(x, mu)
	if !ok || v.isBool {
		return v.b, ok
	}
	t := e.o.terms[v.id]
	switch {
	case !t.literal:
		return false, false
	case t.term.Datatype == rdf.XSDBoolean:
		return t.term.Value == "true" || t.term.Value == "1", true
	case t.str:
		return t.term.Value != "", true
	case t.isNum:
		return t.num != 0, true
	}
	return false, false
}

func (e *eval) binary(x *sparql.Binary, mu solution) (bool, bool) {
	switch x.Op {
	case sparql.OpOr:
		if l, lok := e.ebv(x.Left, mu); lok && l {
			return true, true
		} else if r, rok := e.ebv(x.Right, mu); rok && r {
			return true, true
		} else {
			return false, lok && rok
		}
	case sparql.OpAnd:
		if l, lok := e.ebv(x.Left, mu); lok && !l {
			return false, true
		} else if r, rok := e.ebv(x.Right, mu); rok && !r {
			return false, true
		} else {
			return true, lok && rok
		}
	}
	l, lok := e.expr(x.Left, mu)
	r, rok := e.expr(x.Right, mu)
	if !lok || !rok {
		return false, false
	}
	switch x.Op {
	case sparql.OpEq:
		return e.equal(l, r)
	case sparql.OpNeq:
		eq, ok := e.equal(l, r)
		return !eq, ok
	}
	c, ok := e.compare(l, r)
	switch x.Op {
	case sparql.OpLt:
		return c < 0, ok
	case sparql.OpGt:
		return c > 0, ok
	case sparql.OpLeq:
		return c <= 0, ok
	default: // OpGeq
		return c >= 0, ok
	}
}

func (e *eval) equal(l, r val) (bool, bool) {
	if l.isBool || r.isBool {
		return l.b == r.b, l.isBool && r.isBool
	}
	a, b := e.o.terms[l.id], e.o.terms[r.id]
	switch {
	case a.isNum && b.isNum:
		return a.num == b.num, true
	case a.str && b.str:
		return a.term.Value == b.term.Value, true
	}
	return l.id == r.id, true
}

func (e *eval) compare(l, r val) (int, bool) {
	if l.isBool || r.isBool {
		return 0, false
	}
	a, b := e.o.terms[l.id], e.o.terms[r.id]
	switch {
	case a.isNum && b.isNum:
		return cmpFloat(a.num, b.num), true
	case a.str && b.str:
		return strings.Compare(a.term.Value, b.term.Value), true
	}
	return 0, false
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// order compares two terms under the ORDER BY order; 0 is a tie.
func order(a, b rdf.Term) int {
	ia, ib := infoOf(a), infoOf(b)
	ra, rb := rank(ia), rank(ib)
	switch {
	case ra != rb:
		return ra - rb
	case ra == 2:
		return strings.Compare(a.Value, b.Value)
	case ra == 3:
		return cmpFloat(ia.num, ib.num)
	case ra == 4:
		return strings.Compare(a.Value, b.Value)
	}
	return 0
}

// rank is a term's class in the ORDER BY order: 0 unbound, 1 blank
// node, 2 IRI, 3 numeric literal, 4 other literal.
func rank(t termInfo) int {
	switch t.term.Kind {
	case rdf.KindBlank:
		return 1
	case rdf.KindIRI:
		return 2
	case rdf.KindLiteral:
		if t.isNum {
			return 3
		}
		return 4
	}
	return 0
}

// orderTerms compares two rows of ORDER BY key terms.
func orderTerms(conds []sparql.OrderCondition, a, b []rdf.Term) int {
	for i, c := range conds {
		r := totalOrder(a[i], b[i])
		if c.Desc {
			r = -r
		}
		if r != 0 {
			return r
		}
	}
	return 0
}

// totalOrder is order with its ties broken: the ORDER BY order, and
// MIN's and MAX's.
func totalOrder(a, b rdf.Term) int {
	if c := order(a, b); c != 0 {
		return c
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Datatype, b.Datatype); c != 0 {
		return c
	}
	return strings.Compare(a.Lang, b.Lang)
}

// aggregate groups the solutions on the GROUP BY variables and folds
// the aggregates over each group. Its rows are the SELECT's variables
// (group keys) and the aggregates, each followed by its ORDER BY key
// terms (ORDER BY names output columns), in ORDER BY order. Without
// GROUP BY, no solutions still make one, empty, group.
func (e *eval) aggregate(q *sparql.Query, sols []solution) [][]rdf.Term {
	groups := map[string][]solution{}
	var keys []string
	for _, s := range sols {
		var k strings.Builder
		for _, v := range q.GroupBy {
			fmt.Fprintf(&k, "%d,", s[e.slot[v]])
		}
		if _, ok := groups[k.String()]; !ok {
			keys = append(keys, k.String())
		}
		groups[k.String()] = append(groups[k.String()], s)
	}
	if len(keys) == 0 && len(q.GroupBy) == 0 {
		keys = []string{""}
	}
	cols := map[string]int{}
	for i, v := range q.Vars {
		cols[v] = i
	}
	for i, a := range q.Aggregates {
		cols[a.As] = len(q.Vars) + i
	}
	var rows [][]rdf.Term
	for _, k := range keys {
		members := groups[k]
		var row []rdf.Term
		for _, v := range q.Vars {
			var t rdf.Term
			if len(members) > 0 {
				t = e.o.terms[members[0][e.slot[v]]].term
			}
			row = append(row, t)
		}
		for _, a := range q.Aggregates {
			row = append(row, e.fold(a, members))
		}
		for _, oc := range q.OrderBy {
			var t rdf.Term
			if c, ok := cols[oc.Var]; ok {
				t = row[c]
			}
			row = append(row, t)
		}
		rows = append(rows, row)
	}
	n := len(q.Vars) + len(q.Aggregates)
	sort.SliceStable(rows, func(i, j int) bool {
		return orderTerms(q.OrderBy, rows[i][n:], rows[j][n:]) < 0
	})
	return rows
}

// fold computes one aggregate over a group. COUNT counts the group's
// solutions (*) or the bound values of its variable, distinct ones
// under DISTINCT; SUM and AVG add numeric values and are unbound when a
// value is not numeric (AVG also over no values); MIN and MAX are the
// least and greatest value, unbound over none.
func (e *eval) fold(a sparql.Aggregate, members []solution) rdf.Term {
	if a.Var == "" {
		n := len(members)
		if a.Distinct {
			seen := map[string]bool{}
			for _, m := range members {
				seen[fmt.Sprint(m)] = true
			}
			n = len(seen)
		}
		return rdf.TypedLiteral(strconv.Itoa(n), rdf.XSDInteger)
	}
	var vals []termInfo
	seen := map[int32]bool{}
	for _, m := range members {
		id := m[e.slot[a.Var]]
		if id == 0 || (a.Distinct && seen[id]) {
			continue
		}
		seen[id] = true
		vals = append(vals, e.o.terms[id])
	}
	switch a.Func {
	case sparql.AggCount:
		return rdf.TypedLiteral(strconv.Itoa(len(vals)), rdf.XSDInteger)
	case sparql.AggSum, sparql.AggAvg:
		sum := 0.0
		for _, v := range vals {
			if !v.isNum {
				return rdf.Term{}
			}
			sum += v.num
		}
		if a.Func == sparql.AggSum {
			return number(sum)
		}
		if len(vals) == 0 {
			return rdf.Term{}
		}
		return number(sum / float64(len(vals)))
	}
	var best rdf.Term
	for i, v := range vals {
		c := totalOrder(v.term, best)
		if i == 0 || (a.Func == sparql.AggMin && c < 0) || (a.Func == sparql.AggMax && c > 0) {
			best = v.term
		}
	}
	return best
}

// number renders an aggregate's number: an xsd:integer when it is
// whole, else the shortest xsd:decimal.
func number(v float64) rdf.Term {
	if v == math.Trunc(v) && math.Abs(v) < 1<<62 {
		return rdf.TypedLiteral(strconv.FormatInt(int64(v), 10), rdf.XSDInteger)
	}
	return rdf.TypedLiteral(strconv.FormatFloat(v, 'f', -1, 64), rdf.XSDDecimal)
}
