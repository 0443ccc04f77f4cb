package engine

import (
	"fmt"

	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// patPos is one compiled position (S, P or O) of a triple pattern step.
type patPos struct {
	isVar bool
	slot  int // slot of the variable, when isVar
	// id is the interned constant when !isVar. For a variable it is the
	// IRI a pushed `?v = <iri>` conjunct pins it to (NoID when unpinned):
	// index keys use it, and the slot is still bound from the triple.
	id      store.ID
	missing bool // constant term absent from the dictionary
}

// key is the position's index-key component under row: the constant or
// pin, else the variable's current binding (NoID when unbound).
func (p patPos) key(row []store.ID) store.ID {
	if p.isVar && p.id == store.NoID {
		return row[p.slot]
	}
	return p.id
}

// patternStep is one triple pattern with the filter conjuncts evaluated
// immediately after it binds (filter pushing): conjuncts as placed, and
// filt, the same conjuncts compiled once for every executor.
type patternStep struct {
	pos       [3]patPos
	conjuncts []sparql.Expr
	filt      rowFilter
}

// bgpIter evaluates a basic graph pattern by backtracking over the
// pattern steps: an index-nested-loop join for correlated BGPs (re-opened
// per parent row) and the shapes the batch chains decline (the empty
// group, a variable-free filter).
type bgpIter struct {
	c     *compiled
	steps []patternStep
	// preFilter holds the conjuncts whose variables all lie outside the
	// BGP; it is checked once against the parent row.
	preFilter rowFilter
	// unitFilter applies when the BGP has no patterns at all.
	unitFilter rowFilter
	empty      bool // some constant is missing from the dictionary

	// tsteps are the per-depth EXPLAIN ANALYZE counters (nil unless the
	// query runs under WithAnalyze); test is the planner's cumulative
	// cardinality estimate for the whole BGP.
	tsteps []*tstep
	test   float64

	cur         []store.ID
	memo        termMemo // the filters' comparison memo
	state       []stepCursor
	bound       [][]int // slots bound at each depth
	depth       int
	started     bool
	exhausted   bool
	unitEmitted bool
	preOK       bool
}

// stepCursor is the per-depth iteration state: the step's index range,
// read in merged order one run at a time.
type stepCursor struct {
	rng store.IndexRange
	cur store.Cursor
	run []store.EncTriple // the unread rows of the current run
}

func (b *bgpIter) open(parent []store.ID) {
	if cap(b.cur) < len(b.c.names) {
		b.cur = make([]store.ID, len(b.c.names))
	}
	b.cur = b.cur[:len(b.c.names)]
	copy(b.cur, parent)
	for i := len(parent); i < len(b.cur); i++ {
		b.cur[i] = store.NoID
	}
	b.started = false
	b.exhausted = false
	b.unitEmitted = false
	b.depth = 0
	b.preOK = b.preFilter.pass(b.c, &b.memo, b.cur)
}

func (b *bgpIter) next() ([]store.ID, bool, error) {
	if b.empty || !b.preOK || b.exhausted {
		return nil, false, nil
	}
	if len(b.steps) == 0 {
		if b.unitEmitted {
			return nil, false, nil
		}
		b.unitEmitted = true
		if !b.unitFilter.pass(b.c, &b.memo, b.cur) {
			return nil, false, nil
		}
		return b.cur, true, nil
	}
	d := b.depth
	if !b.started {
		b.started = true
		d = 0
		b.initCursor(0)
	}
	last := len(b.steps) - 1
	for d >= 0 {
		if err := b.c.cancel.check(); err != nil {
			return nil, false, err
		}
		b.clearBound(d)
		t, ok := b.advance(d)
		if !ok {
			d--
			continue
		}
		if !b.bind(d, t) {
			continue
		}
		if !b.steps[d].filt.pass(b.c, &b.memo, b.cur) {
			continue
		}
		if b.tsteps != nil {
			b.tsteps[d].rows.Add(1)
		}
		if d == last {
			b.depth = d
			return b.cur, true, nil
		}
		d++
		b.initCursor(d)
	}
	b.exhausted = true
	return nil, false, nil
}

// initCursor prepares iteration at depth d given the current bindings.
func (b *bgpIter) initCursor(d int) {
	if len(b.state) < len(b.steps) {
		b.state = make([]stepCursor, len(b.steps))
		b.bound = make([][]int, len(b.steps))
	}
	step := &b.steps[d]
	var want store.EncTriple
	for i := 0; i < 3; i++ {
		want[i] = step.pos[i].key(b.cur)
	}
	rng := store.Range(b.c.eng.src, want[0], want[1], want[2])
	b.state[d] = stepCursor{rng: rng, cur: rng.Cursor()}
}

// advance yields the next triple of step d's range that passes the
// range's residual constraint, in SPO component order.
func (b *bgpIter) advance(d int) (store.EncTriple, bool) {
	st := &b.state[d]
	filt := &st.rng.Filt
	for {
		for len(st.run) > 0 {
			row := st.run[0]
			st.run = st.run[1:]
			if (filt[0] == store.NoID || row[0] == filt[0]) &&
				(filt[1] == store.NoID || row[1] == filt[1]) &&
				(filt[2] == store.NoID || row[2] == filt[2]) {
				return st.rng.Ord.Unpermute(row), true
			}
		}
		if st.run = st.cur.Run(); len(st.run) == 0 {
			return store.EncTriple{}, false
		}
		st.cur.Advance(len(st.run))
	}
}

// bind writes t's components into the variables of step d. It fails when
// the same variable occurs at several positions of the pattern with
// conflicting values; partially recorded bindings are undone by the
// clearBound call at the top of the search loop.
func (b *bgpIter) bind(d int, t store.EncTriple) bool {
	step := &b.steps[d]
	for i := 0; i < 3; i++ {
		p := step.pos[i]
		if !p.isVar {
			continue
		}
		if cur := b.cur[p.slot]; cur != store.NoID {
			if cur != t[i] {
				return false
			}
			continue
		}
		b.cur[p.slot] = t[i]
		b.bound[d] = append(b.bound[d], p.slot)
	}
	return true
}

func (b *bgpIter) clearBound(d int) {
	for _, slot := range b.bound[d] {
		b.cur[slot] = store.NoID
	}
	b.bound[d] = b.bound[d][:0]
}

// buildBGP compiles a BGP, optionally reordering its patterns and placing
// the given filter conjuncts (nil when the BGP has no governing FILTER).
// A BGP with no variables bound from outside runs as the batch
// executor's scan → join chain (planVecBGP) behind a row adapter
// whenever the batch path covers it; the nested-loop backtracker serves
// the rest — correlated BGPs, which are re-opened per parent row and
// profit from plain index probes, and the shapes the chains decline.
func (c *compiled) buildBGP(patterns []sparql.TriplePattern, conjuncts []sparql.Expr, outer []string) (subplan, error) {
	if len(outer) == 0 && c.vecDeclineBGP(patterns, conjuncts) == "" {
		op, n := c.planVecBGP(patterns, conjuncts, nil)
		return &batchRows{op: op, tn: n, traced: c.trace != nil}, nil
	}
	b, ordered := c.prepareBGP(patterns, conjuncts, outer)
	if c.trace != nil {
		b.tsteps, b.test = c.fallbackTraceSteps(ordered, outer)
	}
	return b, nil
}

// batchRows runs a BGP's batch pipeline under the tuple iterator
// protocol. Each row is copied out of the pipeline's reused batches
// into one buffer, which the following next call overwrites (subplan's
// ownership rule). The BGP has no outer variables, so the parent row's
// bindings pass through onto every row untouched; open(parent)
// re-opens the pipeline, whose shared build sides stay built.
type batchRows struct {
	op     vecOp
	tn     *tnode // the BGP's trace node; batches are counted when traced
	traced bool

	parent []store.ID
	bound  []int // the slots parent binds
	b      *Batch
	r      int
	done   bool
	row    []store.ID
}

func (a *batchRows) open(parent []store.ID) {
	a.parent = append(a.parent[:0], parent...)
	a.bound = a.bound[:0]
	for s, id := range parent {
		if id != store.NoID {
			a.bound = append(a.bound, s)
		}
	}
	a.op.open()
	a.b, a.r, a.done = nil, 0, false
}

func (a *batchRows) next() ([]store.ID, bool, error) {
	for a.b == nil || a.r >= a.b.Len() {
		if a.done {
			return nil, false, nil
		}
		b, err := a.op.next()
		if b == nil || err != nil {
			a.b, a.done = nil, true
			return nil, false, err
		}
		a.b, a.r = b, 0
		if a.traced {
			a.tn.batches.Add(1)
		}
	}
	a.row = a.b.CopyRow(a.r, a.row)
	a.r++
	for _, s := range a.bound {
		a.row[s] = a.parent[s]
	}
	return a.row, true, nil
}

// prepareBGP performs the logical half of BGP compilation — constant
// pinning, pattern reordering, constant interning, filter conjunct
// placement and compilation — shared by the nested-loop backtracker and
// the batch chains (planVecBGP). The returned patterns are the
// planner's view of b.steps, in step order: a pinned variable appears as
// its IRI, so estimates, index keys and join choices treat it as the
// constant it is.
func (c *compiled) prepareBGP(patterns []sparql.TriplePattern, conjuncts []sparql.Expr, outer []string) (*bgpIter, []sparql.TriplePattern) {
	b := &bgpIter{c: c}
	bgpVars := map[string]bool{}
	for _, p := range patterns {
		addVars(bgpVars, p)
	}
	pins, conjuncts := c.pinEqualities(b, conjuncts, bgpVars, outer)
	planned := pinPatterns(patterns, pins)
	// ordered keeps the variables: the steps bind every slot, pinned ones
	// included, and filter placement follows those bindings.
	plan, ordered := planned, patterns
	if len(patterns) > 1 {
		plan = c.reorder(planned, outer)
		ordered = plan
		if len(pins) > 0 {
			ordered = unpinOrder(plan, planned, patterns)
		}
	}
	dict := c.eng.src.TermDict()
	for _, p := range ordered {
		var step patternStep
		for i, term := range []sparql.PatternTerm{p.S, p.P, p.O} {
			if term.IsVar {
				step.pos[i] = patPos{isVar: true, slot: c.slot(term.Var)}
				if iri, ok := pins[term.Var]; ok {
					id, found := dict.Lookup(iri)
					if !found {
						b.empty = true
					}
					step.pos[i].id = id
				}
				continue
			}
			id, ok := dict.Lookup(term.Term)
			if !ok {
				step.pos[i] = patPos{missing: true}
				b.empty = true
				continue
			}
			step.pos[i] = patPos{id: id}
		}
		b.steps = append(b.steps, step)
	}

	// Filter placement.
	outerOnly := map[string]bool{}
	for _, v := range outer {
		if !bgpVars[v] {
			outerOnly[v] = true
		}
	}
	var pre, unit, residual []sparql.Expr
	for _, conj := range conjuncts {
		vars := sparql.ExprVars(conj)
		if len(b.steps) == 0 {
			unit = append(unit, conj)
			continue
		}
		if allIn(vars, outerOnly) {
			pre = append(pre, conj)
			continue
		}
		at := c.placement(ordered, vars, outerOnly)
		if at < 0 {
			residual = append(residual, conj)
			continue
		}
		b.steps[at].conjuncts = append(b.steps[at].conjuncts, conj)
	}
	// Conjuncts that no step can cover (variables bound nowhere) behave
	// like end-of-BGP filters: attach them to the last step.
	if len(residual) > 0 {
		last := len(b.steps) - 1
		b.steps[last].conjuncts = append(b.steps[last].conjuncts, residual...)
	}
	res := c.resourceSlots(b.steps)
	for i := range b.steps {
		b.steps[i].filt = c.compileFilters(b.steps[i].conjuncts, res)
	}
	b.preFilter = c.compileFilters(pre, nil)
	b.unitFilter = c.compileFilters(unit, nil)
	return b, plan
}

// resourceSlots marks the slots the steps bind at a subject or
// predicate position. RDF puts no literal there (the N-Triples parser
// rejects one), so in every solution of their BGP those slots hold an
// IRI or a blank node; a row where such a slot still holds a literal
// when a conjunct runs fails that position's step, before or after, so
// the conjunct's verdict on it does not matter.
func (c *compiled) resourceSlots(steps []patternStep) map[int]bool {
	res := map[int]bool{}
	for _, st := range steps {
		for _, p := range st.pos[:2] {
			if p.isVar {
				res[p.slot] = true
			}
		}
	}
	return res
}

// pinEqualities takes the pushed conjuncts of the form `?v = <iri>` (or
// `<iri> = ?v`) whose variable a pattern of this BGP binds and no outer
// scope does, and returns them as pins together with the remaining
// conjuncts. `=` between an IRI and any term is term identity, so keying
// ?v's positions on the IRI's dictionary ID is exactly the filter. A
// literal constant is never pinned: `=` compares literals by value
// ("1" = "01"^^xsd:integer). Two different IRIs pinned on one variable
// make the BGP empty.
func (c *compiled) pinEqualities(b *bgpIter, conjuncts []sparql.Expr, bgpVars map[string]bool, outer []string) (map[string]rdf.Term, []sparql.Expr) {
	if len(conjuncts) == 0 {
		return nil, conjuncts
	}
	outerSet := toSet(outer)
	var pins map[string]rdf.Term
	var rest []sparql.Expr
	for _, conj := range conjuncts {
		v, iri, ok := iriEquality(conj)
		if !ok || !bgpVars[v] || outerSet[v] {
			rest = append(rest, conj)
			continue
		}
		if prev, dup := pins[v]; dup {
			if prev != iri {
				b.empty = true
				c.note(fmt.Sprintf("filter pins ?%s to both %s and %s: bgp empty", v, prev, iri))
			}
			continue
		}
		if pins == nil {
			pins = map[string]rdf.Term{}
		}
		pins[v] = iri
		c.note(fmt.Sprintf("filter pinned ?%s = %s", v, iri))
	}
	return pins, rest
}

// iriEquality recognizes `?v = <iri>` and `<iri> = ?v`.
func iriEquality(e sparql.Expr) (string, rdf.Term, bool) {
	bin, ok := e.(*sparql.Binary)
	if !ok || bin.Op != sparql.OpEq {
		return "", rdf.Term{}, false
	}
	v, isVar := bin.Left.(*sparql.VarExpr)
	t, isTerm := bin.Right.(*sparql.TermExpr)
	if !isVar || !isTerm {
		v, isVar = bin.Right.(*sparql.VarExpr)
		t, isTerm = bin.Left.(*sparql.TermExpr)
	}
	if !isVar || !isTerm || !t.Term.IsIRI() {
		return "", rdf.Term{}, false
	}
	return v.Name, t.Term, true
}

// pinPatterns returns the planner's view of the patterns: each pinned
// variable replaced by its IRI.
func pinPatterns(patterns []sparql.TriplePattern, pins map[string]rdf.Term) []sparql.TriplePattern {
	if len(pins) == 0 {
		return patterns
	}
	out := make([]sparql.TriplePattern, len(patterns))
	for i, p := range patterns {
		for _, t := range []*sparql.PatternTerm{&p.S, &p.P, &p.O} {
			if iri, ok := pins[t.Var]; ok && t.IsVar {
				*t = sparql.PatternTerm{Term: iri}
			}
		}
		out[i] = p
	}
	return out
}

// unpinOrder maps the reordered planner view back onto the source
// patterns. Patterns that look equal to the planner are interchangeable,
// so the first unused match is as good as any.
func unpinOrder(plan, planned, patterns []sparql.TriplePattern) []sparql.TriplePattern {
	used := make([]bool, len(planned))
	out := make([]sparql.TriplePattern, 0, len(plan))
	for _, p := range plan {
		for i, q := range planned {
			if !used[i] && q == p {
				used[i] = true
				out = append(out, patterns[i])
				break
			}
		}
	}
	return out
}

// fallbackTraceSteps builds the per-depth EXPLAIN ANALYZE counters for
// the nested-loop backtracker, pairing each depth with the optimizer's
// cumulative cardinality estimate.
func (c *compiled) fallbackTraceSteps(ordered []sparql.TriplePattern, outer []string) ([]*tstep, float64) {
	bound := map[string]bool{}
	for _, v := range outer {
		bound[v] = true
	}
	steps := make([]*tstep, len(ordered))
	leftCard := 1.0
	for i, p := range ordered {
		op := "nl"
		if i == 0 && len(outer) == 0 {
			op = "scan"
		}
		leftCard *= max(1, c.estimate(p, bound))
		steps[i] = &tstep{op: op, pattern: p.String(), est: leftCard}
		addVars(bound, p)
	}
	return steps, leftCard
}

// placement returns the earliest step index after which every variable of
// the conjunct is certainly bound, or -1 if no step achieves that.
//
// Pushing is safe for any conjunct, including bound() calls: within a BGP
// a pattern variable is bound in every complete solution, so a conjunct
// evaluated as soon as all its variables are bound yields the same verdict
// it would at the end of the group. Filters whose scope interacts with
// OPTIONAL never reach this path — they become LeftJoin conditions during
// translation.
func (c *compiled) placement(ordered []sparql.TriplePattern, vars []string, outerOnly map[string]bool) int {
	need := map[string]bool{}
	for _, v := range vars {
		if !outerOnly[v] {
			need[v] = true
		}
	}
	if len(need) == 0 {
		return 0
	}
	for i, p := range ordered {
		for _, v := range p.Vars() {
			delete(need, v)
		}
		if len(need) == 0 {
			return i
		}
	}
	return -1
}

func allIn(vars []string, set map[string]bool) bool {
	for _, v := range vars {
		if !set[v] {
			return false
		}
	}
	return true
}
