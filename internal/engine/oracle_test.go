package engine_test

// An independent reference evaluator ("oracle") implementing the SPARQL
// algebra definitions literally: solution mappings as Go maps, joins as
// compatibility checks over full cross products, LeftJoin by the spec's
// extend-or-keep rule. It shares only the parser and the expression
// evaluator with the engines under test — the evaluation strategy is
// entirely different (no iterators, no slots, no substitution), so
// agreement on random inputs is strong evidence both are right.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sp2bench/internal/algebra"
	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

type mapping map[string]rdf.Term

func (m mapping) Value(name string) (rdf.Term, bool) {
	t, ok := m[name]
	return t, ok
}

func (m mapping) clone() mapping {
	out := make(mapping, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func compatible(a, b mapping) bool {
	for k, v := range a {
		if w, ok := b[k]; ok && w != v {
			return false
		}
	}
	return true
}

func merge(a, b mapping) mapping {
	out := a.clone()
	for k, v := range b {
		out[k] = v
	}
	return out
}

// oracle evaluates a parsed SELECT/ASK query over a triple list.
type oracle struct {
	triples []rdf.Triple
}

func newOracle(s *store.Store) *oracle {
	d := s.Dict()
	var ts []rdf.Triple
	for _, tr := range s.Index(store.OrderSPO) {
		ts = append(ts, rdf.NewTriple(d.Term(tr[0]), d.Term(tr[1]), d.Term(tr[2])))
	}
	return &oracle{triples: ts}
}

func (o *oracle) matchPattern(p sparql.TriplePattern, base mapping) []mapping {
	var out []mapping
	for _, tr := range o.triples {
		m := base.clone()
		if o.bindTerm(p.S, tr.S, m) && o.bindTerm(p.P, tr.P, m) && o.bindTerm(p.O, tr.O, m) {
			out = append(out, m)
		}
	}
	return out
}

func (o *oracle) bindTerm(pt sparql.PatternTerm, val rdf.Term, m mapping) bool {
	if !pt.IsVar {
		return pt.Term == val
	}
	if cur, ok := m[pt.Var]; ok {
		return cur == val
	}
	m[pt.Var] = val
	return true
}

func (o *oracle) evalBGP(patterns []sparql.TriplePattern) []mapping {
	results := []mapping{{}}
	for _, p := range patterns {
		var next []mapping
		for _, m := range results {
			next = append(next, o.matchPattern(p, m)...)
		}
		results = next
	}
	return results
}

func (o *oracle) join(a, b []mapping) []mapping {
	var out []mapping
	for _, m1 := range a {
		for _, m2 := range b {
			if compatible(m1, m2) {
				out = append(out, merge(m1, m2))
			}
		}
	}
	return out
}

// leftJoin implements the spec rule: µ1 extends with every compatible µ2
// satisfying cond; if no such µ2 exists, µ1 survives alone.
func (o *oracle) leftJoin(a, b []mapping, cond sparql.Expr) []mapping {
	var out []mapping
	for _, m1 := range a {
		extended := false
		for _, m2 := range b {
			if !compatible(m1, m2) {
				continue
			}
			m := merge(m1, m2)
			if cond != nil {
				v, err := algebra.EvalBool(cond, m)
				if err != nil || !v {
					continue
				}
			}
			extended = true
			out = append(out, m)
		}
		if !extended {
			out = append(out, m1)
		}
	}
	return out
}

func (o *oracle) evalGroup(g *sparql.GroupGraphPattern) []mapping {
	results := []mapping{{}}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case *sparql.BGP:
			results = o.join(results, o.evalBGP(e.Patterns))
		case *sparql.Group:
			results = o.join(results, o.evalGroup(e.Pattern))
		case *sparql.Union:
			u := append(o.evalGroup(e.Left), o.evalGroup(e.Right)...)
			results = o.join(results, u)
		case *sparql.Optional:
			inner := &sparql.GroupGraphPattern{Elements: e.Pattern.Elements}
			var cond sparql.Expr
			for _, f := range e.Pattern.Filters {
				if cond == nil {
					cond = f
				} else {
					cond = &sparql.Binary{Op: sparql.OpAnd, Left: cond, Right: f}
				}
			}
			results = o.leftJoin(results, o.evalGroup(inner), cond)
		}
	}
	for _, f := range g.Filters {
		var kept []mapping
		for _, m := range results {
			v, err := algebra.EvalBool(f, m)
			if err == nil && v {
				kept = append(kept, m)
			}
		}
		results = kept
	}
	return results
}

// Select evaluates the query and renders each solution as a projected,
// "|"-joined string (unbound = empty cell), sorted for comparison.
func (o *oracle) Select(q *sparql.Query) []string {
	sols := o.evalGroup(q.Where)
	cols := q.Vars
	if len(cols) == 0 {
		set := map[string]bool{}
		for _, m := range sols {
			for v := range m {
				set[v] = true
			}
		}
		for v := range set {
			cols = append(cols, v)
		}
		sort.Strings(cols)
	}
	var rows []string
	for _, m := range sols {
		parts := make([]string, len(cols))
		for i, c := range cols {
			if t, ok := m[c]; ok {
				parts[i] = t.String()
			}
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	if q.Distinct {
		seen := map[string]bool{}
		var dedup []string
		for _, r := range rows {
			if !seen[r] {
				seen[r] = true
				dedup = append(dedup, r)
			}
		}
		rows = dedup
	}
	sort.Strings(rows)
	// OFFSET/LIMIT are order-dependent; the comparison tests only use
	// them together with a total ORDER BY, where count comparison
	// suffices (handled by the caller).
	return rows
}

// renderEngine runs the query on an engine and renders rows the same
// way; an ASK renders as its verdict.
func renderEngine(t *testing.T, s *store.Store, opts engine.Options, q *sparql.Query) []string {
	t.Helper()
	return renderResult(t, engine.New(s, opts), q)
}

// renderResult is renderEngine for an engine over any source.
func renderResult(t *testing.T, eng *engine.Engine, q *sparql.Query) []string {
	t.Helper()
	res, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", eng.Options().Name, err)
	}
	if res.Form == sparql.FormAsk {
		return []string{fmt.Sprintf("ask=%v", res.Ask)}
	}
	var rows []string
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, term := range row {
			if !term.IsZero() {
				parts[i] = term.String()
			}
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	return rows
}

// TestEnginesMatchOracleProperty is the strongest soundness check in the
// suite: on random graphs and random queries, both engine families must
// agree exactly with the literal-semantics reference evaluator.
func TestEnginesMatchOracleProperty(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	iterations := 150
	if testing.Short() {
		iterations = 30
	}
	for i := 0; i < iterations; i++ {
		s := randomGraph(r, 25+r.Intn(30))
		src := randomQuery(r)
		q, err := sparql.Parse(src, rdf.Prefixes)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if q.Limit >= 0 || q.Offset >= 0 {
			continue // slicing is witness-dependent; covered elsewhere
		}
		want := newOracle(s).Select(q)
		for _, opts := range []engine.Options{engine.Mem(), engine.Native()} {
			got := renderEngine(t, s, opts, q)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("iteration %d: %s disagrees with oracle\nquery:\n%s\noracle (%d): %v\nengine (%d): %v",
					i, opts.Name, src, len(want), want, len(got), got)
			}
		}
	}
}

// TestOracleOnPaperShapes sanity-checks the oracle itself against the
// hand-verified tiny library, so the property test above can't be
// vacuously passing with a broken oracle.
func TestOracleOnPaperShapes(t *testing.T) {
	s := tinyLibrary()
	o := newOracle(s)
	q, err := sparql.Parse(`
		SELECT ?yr ?name ?doc WHERE {
			?class rdfs:subClassOf foaf:Document .
			?doc rdf:type ?class .
			?doc dcterms:issued ?yr .
			?doc dc:creator ?author .
			?author foaf:name ?name
			OPTIONAL {
				?class2 rdfs:subClassOf foaf:Document .
				?doc2 rdf:type ?class2 .
				?doc2 dcterms:issued ?yr2 .
				?doc2 dc:creator ?author2
				FILTER (?author = ?author2 && ?yr2 < ?yr)
			}
			FILTER (!bound(?author2))
		}`, rdf.Prefixes)
	if err != nil {
		t.Fatal(err)
	}
	rows := o.Select(q)
	if len(rows) != 3 {
		t.Fatalf("oracle Q6 = %d rows, want 3 (alice, bob, carol debuts): %v", len(rows), rows)
	}
	for _, row := range rows {
		if !strings.Contains(row, "1950") {
			t.Fatalf("oracle Q6 contains non-debut row: %v", rows)
		}
	}
	engRows := renderEngine(t, s, engine.Native(), q)
	if fmt.Sprint(rows) != fmt.Sprint(engRows) {
		t.Fatalf("oracle and engine disagree on Q6:\noracle: %v\nengine: %v", rows, engRows)
	}
}
