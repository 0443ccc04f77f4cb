package engine_test

// The reference evaluator ("oracle") that every agreement test holds
// the engine to. It shares no code with the engine beyond the parser
// and the RDF term type: it takes plain triples, walks the parsed group
// graph pattern itself (no algebra.Translate), and evaluates FILTERs,
// ORDER BY and aggregates with its own code (oracle_expr_test.go),
// never with algebra's evaluator or rdf.Term's Compare and Numeric. A
// defect in the engine's translation, operators, filter code or term
// order therefore shows as a disagreement instead of being shared by
// the reference. TestOracleImports holds these files to that.
//
// Semantics. A solution maps variables to terms. A group's elements are
// joined left to right, each evaluated under the solution it extends: a
// BGP yields its matches compatible with that solution, a UNION its two
// branches' solutions, a nested group its own, and an OPTIONAL extends
// the solution with each match of its pattern that satisfies the
// OPTIONAL's FILTERs, or keeps the solution alone when none does (the
// LeftJoin rule). A group's FILTERs then apply to its solutions. For
// well-designed patterns, the benchmark's among them, this is the
// bottom-up algebra of Pérez et al.; a FILTER that reads a variable its
// own group does not bind sees the binding made to the group's left,
// which is the scoping the engine implements. ORDER BY, projection,
// DISTINCT and OFFSET/LIMIT follow in that order (SPARQL 1.0 §12.2.1).
//
// Evaluation is plain backtracking over per-term posting lists, the
// pattern with the fewest candidate triples first, and the solutions of
// a nested group, a UNION or an OPTIONAL are memoized per binding of
// the variables they mention, so the oracle answers every paper query
// on a 10k document in test time.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
)

// oracle holds a graph: its distinct triples over the oracle's own term
// numbering, and one posting list per (position, term).
type oracle struct {
	terms   []termInfo // by ID; ID 0 is no term (an unbound variable)
	ids     map[rdf.Term]int32
	triples [][3]int32
	by      [3]map[int32][]int32 // position → term ID → triple indexes
}

// newOracle builds the oracle over a triple list. A graph is a set, so
// repeated triples count once.
func newOracle(triples []rdf.Triple) *oracle {
	o := &oracle{terms: []termInfo{{}}, ids: map[rdf.Term]int32{}}
	for i := range o.by {
		o.by[i] = map[int32][]int32{}
	}
	seen := map[[3]int32]bool{}
	for _, t := range triples {
		k := [3]int32{o.intern(t.S), o.intern(t.P), o.intern(t.O)}
		if seen[k] {
			continue
		}
		seen[k] = true
		for pos, id := range k {
			o.by[pos][id] = append(o.by[pos][id], int32(len(o.triples)))
		}
		o.triples = append(o.triples, k)
	}
	return o
}

// intern returns the term's ID, numbering it on first sight.
func (o *oracle) intern(t rdf.Term) int32 {
	if id, ok := o.ids[t]; ok {
		return id
	}
	id := int32(len(o.terms))
	o.ids[t] = id
	o.terms = append(o.terms, infoOf(t))
	return id
}

// solution binds variable slot i to term ID s[i]; 0 is unbound.
// Solutions are never written after they are made.
type solution []int32

// sink receives solutions; it returns false to stop the evaluation (an
// ASK has its answer).
type sink func(solution) bool

// eval is one query's evaluation state.
type eval struct {
	o     *oracle
	slot  map[string]int
	names []string
	pats  map[*sparql.BGP][]opat
	vars  map[any][]int                 // slots an element mentions
	memo  map[any]map[string][]solution // element → key → solutions
}

func (o *oracle) newEval(q *sparql.Query) *eval {
	e := &eval{o: o, slot: map[string]int{}, pats: map[*sparql.BGP][]opat{},
		vars: map[any][]int{}, memo: map[any]map[string][]solution{}}
	add := func(v string) {
		if _, ok := e.slot[v]; !ok {
			e.slot[v] = len(e.names)
			e.names = append(e.names, v)
		}
	}
	var group func(g *sparql.GroupGraphPattern)
	group = func(g *sparql.GroupGraphPattern) {
		for _, el := range g.Elements {
			switch el := el.(type) {
			case *sparql.BGP:
				for _, p := range el.Patterns {
					for _, v := range p.Vars() {
						add(v)
					}
				}
			case *sparql.Group:
				group(el.Pattern)
			case *sparql.Optional:
				group(el.Pattern)
			case *sparql.Union:
				group(el.Left)
				group(el.Right)
			}
		}
		for _, f := range g.Filters {
			for _, v := range sparql.ExprVars(f) {
				add(v)
			}
		}
	}
	if q.Where != nil {
		group(q.Where)
	}
	for _, v := range q.Vars {
		add(v)
	}
	for _, v := range q.GroupBy {
		add(v)
	}
	for _, a := range q.Aggregates {
		if a.Var != "" {
			add(a.Var)
		}
	}
	for _, oc := range q.OrderBy {
		add(oc.Var)
	}
	return e
}

// opat is a triple pattern over slots: slot[i] is the variable at
// position i, or -1 for the constant id[i] (0 when the graph lacks it,
// so the pattern matches nothing).
type opat struct {
	slot [3]int
	id   [3]int32
}

func (e *eval) patterns(b *sparql.BGP) []opat {
	if ps, ok := e.pats[b]; ok {
		return ps
	}
	ps := make([]opat, len(b.Patterns))
	for i, p := range b.Patterns {
		for pos, pt := range []sparql.PatternTerm{p.S, p.P, p.O} {
			ps[i].slot[pos] = -1
			if pt.IsVar {
				ps[i].slot[pos] = e.slot[pt.Var]
			} else {
				ps[i].id[pos] = e.o.ids[pt.Term]
			}
		}
	}
	e.pats[b] = ps
	return ps
}

// candidates returns the triples p can match under mu: the shortest
// posting list of a bound position, or all triples (nil, true) when no
// position is bound.
func (e *eval) candidates(p opat, mu solution) ([]int32, bool) {
	var best []int32
	bound := false
	for pos := 0; pos < 3; pos++ {
		id := p.id[pos]
		if p.slot[pos] >= 0 {
			if id = mu[p.slot[pos]]; id == 0 {
				continue
			}
		} else if id == 0 {
			return nil, false
		}
		if list := e.o.by[pos][id]; !bound || len(list) < len(best) {
			best, bound = list, true
		}
	}
	return best, !bound
}

// match extends mu by triple t under p, or reports that t does not
// match: a constant must equal, and a variable must be unbound or bound
// to the same term (also when it repeats within the pattern).
func (e *eval) match(p opat, t [3]int32, mu solution) (solution, bool) {
	nu, copied := mu, false
	for pos := 0; pos < 3; pos++ {
		s := p.slot[pos]
		if s < 0 {
			if p.id[pos] != t[pos] {
				return nil, false
			}
			continue
		}
		switch nu[s] {
		case t[pos]:
		case 0:
			if !copied {
				nu, copied = slices.Clone(mu), true
			}
			nu[s] = t[pos]
		default:
			return nil, false
		}
	}
	return nu, true
}

// bgp emits the matches of the patterns not yet in done under mu,
// taking next the pattern with the fewest candidate triples.
func (e *eval) bgp(ps []opat, done uint64, mu solution, emit sink) bool {
	next, fewest := -1, 0
	var cands []int32
	var scan bool
	for i, p := range ps {
		if done&(1<<i) != 0 {
			continue
		}
		c, all := e.candidates(p, mu)
		n := len(c)
		if all {
			n = len(e.o.triples)
		}
		if next < 0 || n < fewest {
			next, fewest, cands, scan = i, n, c, all
		}
	}
	if next < 0 {
		return emit(mu)
	}
	try := func(t int32) bool {
		if nu, ok := e.match(ps[next], e.o.triples[t], mu); ok {
			return e.bgp(ps, done|1<<next, nu, emit)
		}
		return true
	}
	if scan {
		for t := range e.o.triples {
			if !try(int32(t)) {
				return false
			}
		}
		return true
	}
	for _, t := range cands {
		if !try(t) {
			return false
		}
	}
	return true
}

// group emits the solutions of g under mu that pass g's FILTERs.
func (e *eval) group(g *sparql.GroupGraphPattern, mu solution, emit sink) bool {
	return e.elements(g.Elements, mu, func(nu solution) bool {
		return !e.filters(g.Filters, nu) || emit(nu)
	})
}

// elements joins a group's elements left to right under mu.
func (e *eval) elements(els []sparql.Element, mu solution, emit sink) bool {
	if len(els) == 0 {
		return emit(mu)
	}
	rest := func(nu solution) bool { return e.elements(els[1:], nu, emit) }
	switch el := els[0].(type) {
	case *sparql.BGP:
		if len(el.Patterns) > 64 {
			panic("oracle: a BGP of more than 64 patterns")
		}
		return e.bgp(e.patterns(el), 0, mu, rest)
	case *sparql.Group:
		return e.extend(el, mu, func(nu solution, emit sink) bool {
			return e.group(el.Pattern, nu, emit)
		}, rest)
	case *sparql.Union:
		return e.extend(el, mu, func(nu solution, emit sink) bool {
			return e.group(el.Left, nu, emit) && e.group(el.Right, nu, emit)
		}, rest)
	case *sparql.Optional:
		exts := e.sub(el, mu, func(nu solution, emit sink) bool {
			return e.elements(el.Pattern.Elements, nu, emit)
		})
		scratch := make(solution, len(mu))
		extended := false
		for _, x := range exts {
			overlay(scratch, mu, x, e.mentions(el))
			if e.filters(el.Pattern.Filters, scratch) {
				extended = true
				if !rest(slices.Clone(scratch)) {
					return false
				}
			}
		}
		return extended || rest(mu)
	default:
		panic(fmt.Sprintf("oracle: unknown element %T", el))
	}
}

// extend emits mu extended by each solution of the memoized element.
func (e *eval) extend(el any, mu solution, run func(solution, sink) bool, emit sink) bool {
	vars := e.mentions(el)
	for _, x := range e.sub(el, mu, run) {
		nu := make(solution, len(mu))
		overlay(nu, mu, x, vars)
		if !emit(nu) {
			return false
		}
	}
	return true
}

// overlay writes mu, then x's bindings of vars, into dst.
func overlay(dst, mu, x solution, vars []int) {
	copy(dst, mu)
	for _, s := range vars {
		dst[s] = x[s]
	}
}

// sub returns the solutions run finds for an element under mu. They
// depend only on mu's bindings of the variables the element mentions,
// so run sees mu restricted to those, and its solutions are memoized
// per such binding.
func (e *eval) sub(el any, mu solution, run func(solution, sink) bool) []solution {
	vars := e.mentions(el)
	var key strings.Builder
	restricted := make(solution, len(mu))
	for _, s := range vars {
		restricted[s] = mu[s]
		fmt.Fprintf(&key, "%d,", mu[s])
	}
	memo := e.memo[el]
	if memo == nil {
		memo = map[string][]solution{}
		e.memo[el] = memo
	}
	k := key.String()
	if sols, ok := memo[k]; ok {
		return sols
	}
	var sols []solution
	run(restricted, func(nu solution) bool {
		sols = append(sols, nu)
		return true
	})
	memo[k] = sols
	return sols
}

// mentions returns the slots of the variables an element's patterns
// and FILTERs mention; an OPTIONAL's own FILTERs, which read the
// extended solution, are not the pattern's.
func (e *eval) mentions(el any) []int {
	if vs, ok := e.vars[el]; ok {
		return vs
	}
	set := map[int]bool{}
	var group func(g *sparql.GroupGraphPattern, filters bool)
	group = func(g *sparql.GroupGraphPattern, filters bool) {
		for _, el := range g.Elements {
			switch el := el.(type) {
			case *sparql.BGP:
				for _, p := range el.Patterns {
					for _, v := range p.Vars() {
						set[e.slot[v]] = true
					}
				}
			case *sparql.Group:
				group(el.Pattern, true)
			case *sparql.Optional:
				group(el.Pattern, true)
			case *sparql.Union:
				group(el.Left, true)
				group(el.Right, true)
			}
		}
		if filters {
			for _, f := range g.Filters {
				for _, v := range sparql.ExprVars(f) {
					set[e.slot[v]] = true
				}
			}
		}
	}
	switch el := el.(type) {
	case *sparql.Group:
		group(el.Pattern, true)
	case *sparql.Union:
		group(el.Left, true)
		group(el.Right, true)
	case *sparql.Optional:
		group(el.Pattern, false)
	}
	vs := make([]int, 0, len(set))
	for s := range set {
		vs = append(vs, s)
	}
	sort.Ints(vs)
	e.vars[el] = vs
	return vs
}

// answer is what the oracle allows an engine to return: for ASK the
// verdict; for SELECT the rendered rows in solution order, cut where
// the ORDER BY keys change (one group without ORDER BY), under the
// query's OFFSET and LIMIT. Rows render as their terms' N-Triples forms
// joined by "|", an unbound column as the empty string.
type answer struct {
	ask           bool
	isAsk         bool
	groups        [][]string
	offset, limit int
}

// answer evaluates a SELECT (plain or aggregate) or ASK query.
func (o *oracle) answer(q *sparql.Query) *answer {
	e := o.newEval(q)
	empty := make(solution, len(e.names))
	if q.Form == sparql.FormAsk {
		a := &answer{isAsk: true}
		e.group(q.Where, empty, func(solution) bool {
			a.ask = true
			return false
		})
		return a
	}
	var sols []solution
	e.group(q.Where, empty, func(s solution) bool {
		sols = append(sols, s)
		return true
	})
	// Each row is the output terms followed by the ORDER BY key terms,
	// in ORDER BY order.
	var rows [][]rdf.Term
	if q.IsAggregate() {
		rows = e.aggregate(q, sols)
	} else {
		rows = e.project(q, sols)
	}
	a := &answer{offset: max(q.Offset, 0), limit: q.Limit}
	seen := map[string]bool{}
	var prev []rdf.Term
	for _, row := range rows {
		cut := len(row) - len(q.OrderBy)
		r, keys := renderTerms(row[:cut]), row[cut:]
		if q.Distinct {
			if seen[r] {
				continue
			}
			seen[r] = true
		}
		if len(a.groups) == 0 || orderTerms(q.OrderBy, prev, keys) != 0 {
			a.groups = append(a.groups, nil)
		}
		a.groups[len(a.groups)-1] = append(a.groups[len(a.groups)-1], r)
		prev = keys
	}
	return a
}

// project returns the solutions in ORDER BY order as rows of the
// projected terms, each followed by its ORDER BY key terms.
func (e *eval) project(q *sparql.Query, sols []solution) [][]rdf.Term {
	cols := q.Vars
	if len(cols) == 0 { // SELECT *: the pattern's variables, sorted
		set := map[string]bool{}
		var walk func(g *sparql.GroupGraphPattern)
		walk = func(g *sparql.GroupGraphPattern) {
			for _, el := range g.Elements {
				switch el := el.(type) {
				case *sparql.BGP:
					for _, p := range el.Patterns {
						for _, v := range p.Vars() {
							set[v] = true
						}
					}
				case *sparql.Group:
					walk(el.Pattern)
				case *sparql.Optional:
					walk(el.Pattern)
				case *sparql.Union:
					walk(el.Left)
					walk(el.Right)
				}
			}
		}
		walk(q.Where)
		for v := range set {
			cols = append(cols, v)
		}
		sort.Strings(cols)
	}
	rows := make([][]rdf.Term, len(sols))
	for i, s := range sols {
		row := make([]rdf.Term, 0, len(cols)+len(q.OrderBy))
		for _, c := range cols {
			row = append(row, e.o.terms[s[e.slot[c]]].term)
		}
		for _, oc := range q.OrderBy {
			row = append(row, e.o.terms[s[e.slot[oc.Var]]].term)
		}
		rows[i] = row
	}
	n := len(cols)
	sort.SliceStable(rows, func(i, j int) bool {
		return orderTerms(q.OrderBy, rows[i][n:], rows[j][n:]) < 0
	})
	return rows
}

// renderTerms renders a row as the answer's rows are rendered.
func renderTerms(row []rdf.Term) string {
	parts := make([]string, len(row))
	for i, t := range row {
		if t.Kind != rdf.KindInvalid {
			parts[i] = t.String()
		}
	}
	return strings.Join(parts, "|")
}

// rows returns every row of the answer, ignoring OFFSET and LIMIT.
func (a *answer) rows() []string {
	var out []string
	for _, g := range a.groups {
		out = append(out, g...)
	}
	return out
}

// check reports whether got, an engine's SELECT rows in the order it
// returned them, is an answer the oracle allows: the rows of the
// oracle's sequence from OFFSET on, at most LIMIT of them, where rows
// within a group of equal ORDER BY keys may come in any order and a
// group cut by the window may be filled by any of its rows.
func (a *answer) check(got []string) error {
	total := 0
	for _, g := range a.groups {
		total += len(g)
	}
	lo, hi := min(a.offset, total), total
	if a.limit >= 0 {
		hi = min(hi, lo+a.limit)
	}
	if len(got) != hi-lo {
		return fmt.Errorf("%d rows, the oracle has %d", len(got), hi-lo)
	}
	pos, i := 0, 0
	for _, g := range a.groups {
		s, t := max(pos, lo), min(pos+len(g), hi)
		pos += len(g)
		if s >= t {
			continue
		}
		chunk := got[i : i+t-s]
		i += t - s
		if extra := notIn(chunk, g); extra != "" {
			return fmt.Errorf("row %q is not among the oracle's rows %d..%d %q", extra, s, t-1, g)
		}
	}
	return nil
}

// notIn returns a row of chunk that the multiset pool cannot supply, or
// "" when pool holds every row of chunk.
func notIn(chunk, pool []string) string {
	left := map[string]int{}
	for _, r := range pool {
		left[r]++
	}
	for _, r := range chunk {
		if left[r] == 0 {
			return r
		}
		left[r]--
	}
	return ""
}
