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
	id store.ID
}

// patternStep is one triple pattern with the filter conjuncts evaluated
// immediately after it binds (filter pushing): conjuncts as placed, and
// filt, the same conjuncts compiled once for every executor.
type patternStep struct {
	pos       [3]patPos
	conjuncts []sparql.Expr
	filt      rowFilter
}

// bgpPlan is a compiled BGP: its pattern steps in evaluation order,
// each with the filter conjuncts placed after it. pre holds the
// conjuncts reading no variable of the BGP (constants, or variables of
// a correlated BGP's anchor row), and every conjunct of an empty BGP.
type bgpPlan struct {
	steps []patternStep
	pre   []sparql.Expr
	empty bool // some constant is missing from the dictionary
}

// prepareBGP performs the logical half of BGP compilation — constant
// pinning, pattern reordering, constant interning, filter conjunct
// placement and compilation — for the batch chains (planVecChain).
// outer lists the variables an anchor row certainly binds (none for an
// outer-free BGP). The returned patterns are the planner's view of
// b.steps, in step order: a pinned variable appears as its IRI, so
// estimates, index keys and join choices treat it as the constant it
// is.
func (c *compiled) prepareBGP(patterns []sparql.TriplePattern, conjuncts []sparql.Expr, outer []string) (*bgpPlan, []sparql.TriplePattern) {
	b := &bgpPlan{}
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
	var residual []sparql.Expr
	for _, conj := range conjuncts {
		vars := sparql.ExprVars(conj)
		if len(b.steps) == 0 || allIn(vars, outerOnly) {
			b.pre = append(b.pre, conj)
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
// `<iri> = ?v`) whose variable a pattern of this BGP binds and no anchor
// row may bind, and returns them as pins together with the remaining
// conjuncts. `=` between an IRI and any term is term identity, so keying
// ?v's positions on the IRI's dictionary ID is exactly the filter. A
// literal constant is never pinned: `=` compares literals by value
// ("1" = "01"^^xsd:integer). Two different IRIs pinned on one variable
// make the BGP empty.
func (c *compiled) pinEqualities(b *bgpPlan, conjuncts []sparql.Expr, bgpVars map[string]bool, outer []string) (map[string]rdf.Term, []sparql.Expr) {
	if len(conjuncts) == 0 {
		return nil, conjuncts
	}
	outerSet := toSet(outer)
	var pins map[string]rdf.Term
	var rest []sparql.Expr
	for _, conj := range conjuncts {
		v, iri, ok := iriEquality(conj)
		if !ok || !bgpVars[v] || outerSet[v] || c.anchorMayBind(v) {
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
