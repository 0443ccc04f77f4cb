package engine

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// This file implements the query forms beyond SELECT/ASK exactly as the
// paper frames them (Section V): "CONSTRUCT and DESCRIBE build upon the
// core evaluation of SELECT, i.e. transform its result in a
// post-processing step." The aggregation extension (Section VII's
// proposed language extension) follows the same pattern: the core pattern
// is evaluated by the batch operators, grouping and folding happen over
// the materialized mappings.

// Construct evaluates a CONSTRUCT query and returns the constructed graph
// (deduplicated, in construction order). Template triples with unbound
// variables or literal subjects are skipped per the SPARQL specification;
// blank nodes in the template are instantiated freshly per solution.
func (e *Engine) Construct(ctx context.Context, q *sparql.Query) ([]rdf.Triple, error) {
	if q.Form != sparql.FormConstruct {
		return nil, fmt.Errorf("engine: Construct called with %v query", q.Form)
	}
	// Core evaluation: a SELECT * over the same pattern and modifiers.
	core := *q
	core.Form = sparql.FormSelect
	core.Vars = nil
	res, err := e.Query(ctx, &core)
	if err != nil {
		return nil, err
	}
	slot := map[string]int{}
	for i, v := range res.Vars {
		slot[v] = i
	}
	resolve := func(pt sparql.PatternTerm, row []rdf.Term, solution int) (rdf.Term, bool) {
		if !pt.IsVar {
			if pt.Term.IsBlank() {
				// Fresh blank node per solution (standard template
				// semantics).
				return rdf.Blank(pt.Term.Value + "_c" + strconv.Itoa(solution)), true
			}
			return pt.Term, true
		}
		i, ok := slot[pt.Var]
		if !ok || row[i].IsZero() {
			return rdf.Term{}, false
		}
		return row[i], true
	}
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	for si, row := range res.Rows {
		for _, tp := range q.Template {
			s, ok1 := resolve(tp.S, row, si)
			p, ok2 := resolve(tp.P, row, si)
			o, ok3 := resolve(tp.O, row, si)
			if !ok1 || !ok2 || !ok3 {
				continue
			}
			if s.IsLiteral() || !p.IsIRI() {
				continue // ill-formed instantiation: skipped, not an error
			}
			tr := rdf.NewTriple(s, p, o)
			if !seen[tr] {
				seen[tr] = true
				out = append(out, tr)
			}
		}
	}
	return out, nil
}

// Describe evaluates a DESCRIBE query: the description of a term is the
// set of triples having it as subject ("adjacent nodes", the concise
// bounded description every engine of the paper's era shipped in some
// variant).
func (e *Engine) Describe(ctx context.Context, q *sparql.Query) ([]rdf.Triple, error) {
	if q.Form != sparql.FormDescribe {
		return nil, fmt.Errorf("engine: Describe called with %v query", q.Form)
	}
	terms := append([]rdf.Term(nil), q.DescribeTerms...)
	if q.Where != nil {
		core := *q
		core.Form = sparql.FormSelect
		res, err := e.Query(ctx, &core)
		if err != nil {
			return nil, err
		}
		seen := map[rdf.Term]bool{}
		for _, row := range res.Rows {
			for _, t := range row {
				if !t.IsZero() && !t.IsLiteral() && !seen[t] {
					seen[t] = true
					terms = append(terms, t)
				}
			}
		}
	}
	var out []rdf.Triple
	dict := e.src.TermDict()
	for _, term := range terms {
		id, ok := dict.Lookup(term)
		if !ok {
			continue
		}
		// The subject's SPO range: rows in SPO order, no residual.
		cur := e.src.RangeIn(store.OrderSPO, id, store.NoID, store.NoID).Cursor()
		for run := cur.Run(); len(run) > 0; run = cur.Run() {
			for _, enc := range run {
				out = append(out, rdf.NewTriple(dict.Term(enc[0]), dict.Term(enc[1]), dict.Term(enc[2])))
			}
			cur.Advance(len(run))
		}
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Aggregate evaluates a SELECT query using the COUNT/SUM/MIN/MAX/AVG
// extension: the pattern is evaluated by the core pipeline, then the
// mappings are grouped on the GROUP BY variables and folded.
func (e *Engine) Aggregate(ctx context.Context, q *sparql.Query) (*Result, error) {
	if !q.IsAggregate() {
		return nil, fmt.Errorf("engine: Aggregate called with a non-aggregate query")
	}
	res, err := e.Query(ctx, aggregateCore(q))
	if err != nil {
		return nil, err
	}
	slot := map[string]int{}
	for i, v := range res.Vars {
		slot[v] = i
	}

	type group struct {
		key  []rdf.Term
		accs []*accumulator
	}
	groups := map[string]*group{}
	var order []string
	var keyBuf strings.Builder
	for _, row := range res.Rows {
		keyBuf.Reset()
		key := make([]rdf.Term, len(q.GroupBy))
		for i, v := range q.GroupBy {
			if s, ok := slot[v]; ok {
				key[i] = row[s]
			}
			keyBuf.WriteString(key[i].String())
			keyBuf.WriteByte('\x00')
		}
		k := keyBuf.String()
		g, ok := groups[k]
		if !ok {
			g = &group{key: key, accs: make([]*accumulator, len(q.Aggregates))}
			for i, spec := range q.Aggregates {
				g.accs[i] = newAccumulator(spec)
			}
			groups[k] = g
			order = append(order, k)
		}
		for i, spec := range q.Aggregates {
			var val rdf.Term
			if spec.Var != "" {
				if s, ok := slot[spec.Var]; ok {
					val = row[s]
				}
			}
			g.accs[i].add(val, spec.Var == "")
		}
	}
	// A group-less aggregation over zero rows still yields one row
	// (COUNT(*) = 0), matching SQL and SPARQL 1.1.
	if len(groups) == 0 && len(q.GroupBy) == 0 {
		g := &group{accs: make([]*accumulator, len(q.Aggregates))}
		for i, spec := range q.Aggregates {
			g.accs[i] = newAccumulator(spec)
		}
		groups[""] = g
		order = append(order, "")
	}

	out := &Result{Form: sparql.FormSelect}
	out.Vars = append(out.Vars, q.Vars...)
	for _, a := range q.Aggregates {
		out.Vars = append(out.Vars, a.As)
	}
	keyIdx := map[string]int{}
	for i, v := range q.GroupBy {
		keyIdx[v] = i
	}
	for _, k := range order {
		g := groups[k]
		row := make([]rdf.Term, 0, len(out.Vars))
		for _, v := range q.Vars {
			row = append(row, g.key[keyIdx[v]])
		}
		for _, acc := range g.accs {
			row = append(row, acc.result())
		}
		out.Rows = append(out.Rows, row)
	}

	sortAggregated(out, q)
	applySlice(out, q)
	return out, nil
}

// aggregateCore returns the SELECT * an aggregate query groups: its
// pattern without modifiers, since grouping happens before ordering and
// slicing.
func aggregateCore(q *sparql.Query) *sparql.Query {
	core := *q
	core.Vars = nil
	core.Aggregates = nil
	core.GroupBy = nil
	core.OrderBy = nil
	core.Limit, core.Offset = -1, -1
	core.Distinct = false
	return &core
}

// sortAggregated applies ORDER BY over the aggregated rows; conditions
// may reference group keys and aggregate aliases alike.
func sortAggregated(res *Result, q *sparql.Query) {
	if len(q.OrderBy) == 0 {
		return
	}
	col := map[string]int{}
	for i, v := range res.Vars {
		col[v] = i
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		for _, oc := range q.OrderBy {
			c, ok := col[oc.Var]
			if !ok {
				continue
			}
			a, b := res.Rows[i][c], res.Rows[j][c]
			cmp := 0
			switch {
			case a.IsZero() && b.IsZero():
			case a.IsZero():
				cmp = -1
			case b.IsZero():
				cmp = 1
			default:
				cmp = a.Compare(b)
			}
			if cmp == 0 {
				continue
			}
			if oc.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

func applySlice(res *Result, q *sparql.Query) {
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
}

// accumulator folds one aggregate over a group.
type accumulator struct {
	spec     sparql.Aggregate
	count    int64
	sum      float64
	sumOK    bool
	min, max rdf.Term
	distinct map[rdf.Term]bool
}

func newAccumulator(spec sparql.Aggregate) *accumulator {
	acc := &accumulator{spec: spec, sumOK: true}
	if spec.Distinct {
		acc.distinct = map[rdf.Term]bool{}
	}
	return acc
}

// add folds one value. star marks COUNT(*) rows, which count even when no
// variable value is present.
func (a *accumulator) add(val rdf.Term, star bool) {
	if !star && val.IsZero() {
		return // unbound values do not participate (SPARQL 1.1 semantics)
	}
	if a.distinct != nil {
		if a.distinct[val] {
			return
		}
		a.distinct[val] = true
	}
	a.count++
	if star {
		return
	}
	if n, ok := val.Numeric(); ok {
		a.sum += n
	} else {
		a.sumOK = false
	}
	if a.min.IsZero() || val.Compare(a.min) < 0 {
		a.min = val
	}
	if a.max.IsZero() || val.Compare(a.max) > 0 {
		a.max = val
	}
}

// result renders the aggregate as an RDF literal. SUM/AVG over
// non-numeric values and MIN/MAX/AVG over empty groups yield the unbound
// (zero) term, mirroring SPARQL 1.1's error-to-unbound behaviour.
func (a *accumulator) result() rdf.Term {
	switch a.spec.Func {
	case sparql.AggCount:
		return rdf.Integer(int(a.count))
	case sparql.AggSum:
		if !a.sumOK {
			return rdf.Term{}
		}
		return numericLiteral(a.sum)
	case sparql.AggAvg:
		if !a.sumOK || a.count == 0 {
			return rdf.Term{}
		}
		return numericLiteral(a.sum / float64(a.count))
	case sparql.AggMin:
		return a.min
	case sparql.AggMax:
		return a.max
	default:
		return rdf.Term{}
	}
}

func numericLiteral(v float64) rdf.Term {
	if v == float64(int64(v)) {
		return rdf.Integer(int(int64(v)))
	}
	return rdf.TypedLiteral(strconv.FormatFloat(v, 'f', -1, 64), rdf.XSDDecimal)
}

// Eval dispatches a parsed query to the right evaluation entry point,
// returning a Result for SELECT/ASK/aggregate queries and a graph for
// CONSTRUCT/DESCRIBE.
func (e *Engine) Eval(ctx context.Context, q *sparql.Query) (*Result, []rdf.Triple, error) {
	switch {
	case q.Form == sparql.FormConstruct:
		g, err := e.Construct(ctx, q)
		return nil, g, err
	case q.Form == sparql.FormDescribe:
		g, err := e.Describe(ctx, q)
		return nil, g, err
	case q.IsAggregate():
		r, err := e.Aggregate(ctx, q)
		return r, nil, err
	default:
		r, err := e.Query(ctx, q)
		return r, nil, err
	}
}
