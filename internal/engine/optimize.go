package engine

import (
	"fmt"
	"slices"

	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// reorder implements selectivity-based triple pattern reordering (the
// optimization of Stocker et al., reference [5] of the paper): a greedy
// ordering that always picks the cheapest remaining pattern, strongly
// preferring patterns connected to the already-bound variables to avoid
// intermediate cross products.
func (c *compiled) reorder(patterns []sparql.TriplePattern, outer []string) []sparql.TriplePattern {
	remaining := append([]sparql.TriplePattern(nil), patterns...)
	bound := map[string]bool{}
	for _, v := range outer {
		bound[v] = true
	}
	ordered := make([]sparql.TriplePattern, 0, len(patterns))
	for len(remaining) > 0 {
		bestIdx, bestCost := -1, 0.0
		for i, p := range remaining {
			cost := c.estimate(p, bound)
			if disconnected(p, bound) && len(ordered)+len(outer) > 0 {
				cost *= 1e9 // cross product: only as a last resort
			}
			if bestIdx < 0 || cost < bestCost {
				bestIdx, bestCost = i, cost
			}
		}
		// The anchor tie-break trades up to 50% of scan cost for a sort
		// order only merge joins can exploit — engines without them keep
		// the plain cheapest-first order.
		if len(ordered) == 0 && len(outer) == 0 && c.eng.opts.MergeJoins {
			bestIdx = c.preferSortedAnchor(remaining, bestIdx, bestCost)
		}
		chosen := remaining[bestIdx]
		ordered = append(ordered, chosen)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		addVars(bound, chosen)
	}
	ordered = c.swapDisconnectedBlocks(ordered, outer)
	if !slices.Equal(patterns, ordered) {
		c.notes = append(c.notes, planNote{order: ordered})
	}
	return ordered
}

// preferSortedAnchor is the merge-aware tie-break for the first pattern
// of a BGP (the anchor the physical layer scans): among candidates whose
// cost is within 50% of the cheapest, prefer the one whose index-ordered
// scan emits rows sorted by a variable shared with the most remaining
// patterns — that sort order is what makes merge joins applicable
// downstream. Star queries like Q2 pick the pattern sorted by the star's
// center instead of an arbitrary cost tie.
func (c *compiled) preferSortedAnchor(remaining []sparql.TriplePattern, bestIdx int, bestCost float64) int {
	none := map[string]bool{}
	utility := func(idx int) int {
		v := c.scanSortVar(remaining[idx])
		if v == "" {
			return 0
		}
		n := 0
		for i, p := range remaining {
			if i == idx {
				continue
			}
			for _, pv := range p.Vars() {
				if pv == v {
					n++
					break
				}
			}
		}
		return n
	}
	chosen, chosenUtil := bestIdx, utility(bestIdx)
	for i := range remaining {
		if i == bestIdx {
			continue
		}
		if c.estimate(remaining[i], none) > bestCost*1.5 {
			continue
		}
		if u := utility(i); u > chosenUtil || (u == chosenUtil && i < chosen && chosen != bestIdx) {
			chosen, chosenUtil = i, u
		}
	}
	return chosen
}

// scanSortVar is the variable an index scan of the pattern's constants
// emits its rows sorted by ("" when the lead components are not
// variables) — the AST-level twin of leadVarSlot.
func (c *compiled) scanSortVar(p sparql.TriplePattern) string {
	resolve := func(t sparql.PatternTerm) bool { // bound as a constant?
		if t.IsVar {
			return false
		}
		_, ok := c.eng.src.TermDict().Lookup(t.Term)
		return ok
	}
	sConst, pConst, oConst := resolve(p.S), resolve(p.P), resolve(p.O)
	ord := store.ChooseOrder(sConst, pConst, oConst)
	consts := [3]bool{sConst, pConst, oConst}
	terms := [3]sparql.PatternTerm{p.S, p.P, p.O}
	lead := 0
	for lead < 3 && consts[ordPos[ord][lead]] {
		lead++
	}
	for i := lead; i < 3; i++ {
		t := terms[ordPos[ord][i]]
		if t.IsVar {
			return t.Var
		}
	}
	return ""
}

// swapDisconnectedBlocks improves cross-product plans: when the greedy
// order ends in a block of patterns sharing no variable with the head (a
// cross product the physical layer evaluates by materializing and hashing
// the trailing block), the *smaller* estimated block should trail — it is
// the build side. If the trailing block is the larger one, the two blocks
// are swapped so the big side streams and the small side is built.
func (c *compiled) swapDisconnectedBlocks(ordered []sparql.TriplePattern, outer []string) []sparql.TriplePattern {
	cut := disconnectedCut(ordered, outer)
	if cut <= 0 {
		return ordered
	}
	headEst := c.blockEstimate(ordered[:cut], outer)
	tailEst := c.blockEstimate(ordered[cut:], outer)
	if tailEst <= headEst {
		return ordered
	}
	swapped := make([]sparql.TriplePattern, 0, len(ordered))
	swapped = append(swapped, ordered[cut:]...)
	swapped = append(swapped, ordered[:cut]...)
	// The swap is only valid if the old head is disconnected from the new
	// one too (symmetric by construction) and stays one trailing block.
	if disconnectedCut(swapped, outer) != len(ordered)-cut {
		return ordered
	}
	c.note(fmt.Sprintf(
		"bgp blocks swapped: probe est %.3g streams, build est %.3g trails", tailEst, headEst))
	return swapped
}

// disconnectedCut returns the index of the first pattern sharing no
// variable with the patterns before it (plus outer), or -1 when the whole
// BGP is connected. Patterns after the cut are the trailing block.
func disconnectedCut(ordered []sparql.TriplePattern, outer []string) int {
	bound := map[string]bool{}
	for _, v := range outer {
		bound[v] = true
	}
	for i, p := range ordered {
		if i > 0 && disconnected(p, bound) {
			return i
		}
		addVars(bound, p)
	}
	return -1
}

// blockEstimate predicts the result cardinality of a pattern block by
// chaining per-pattern estimates, each conditioned on the variables the
// previous patterns bind.
func (c *compiled) blockEstimate(patterns []sparql.TriplePattern, outer []string) float64 {
	bound := map[string]bool{}
	for _, v := range outer {
		bound[v] = true
	}
	card := 1.0
	for _, p := range patterns {
		card *= max(1, c.estimate(p, bound))
		for _, v := range p.Vars() {
			bound[v] = true
		}
	}
	return card
}

func fmtOrder(ps []sparql.TriplePattern) string {
	s := ""
	for _, p := range ps {
		s += p.String() + " "
	}
	return s
}

// disconnected reports whether evaluating the pattern next would create a
// cross product: it binds variables, none of which are in the bound set.
// A fully-constant pattern is never disconnected — it produces at most
// one binding-free match (the most selective pattern possible), so the
// cross-product penalty must not push it to the back of the order.
func disconnected(p sparql.TriplePattern, bound map[string]bool) bool {
	if len(bound) == 0 {
		return false
	}
	hasVar := false
	for _, t := range [...]*sparql.PatternTerm{&p.S, &p.P, &p.O} {
		if t.IsVar {
			if bound[t.Var] {
				return false
			}
			hasVar = true
		}
	}
	return hasVar
}

// estimate predicts the number of bindings the pattern produces given the
// variables already bound. Constant components use exact index counts; a
// runtime-bound variable divides the estimate by the number of distinct
// values observed at that position.
func (c *compiled) estimate(p sparql.TriplePattern, bound map[string]bool) float64 {
	st := c.eng.src
	n := float64(st.Len())
	if n == 0 {
		return 0
	}

	resolve := func(t sparql.PatternTerm) (id store.ID, isConst, isBound, missing bool) {
		if !t.IsVar {
			cid, ok := st.TermDict().Lookup(t.Term)
			if !ok {
				return 0, true, false, true
			}
			return cid, true, false, false
		}
		return 0, false, bound[t.Var], false
	}

	sid, sConst, sBound, sMiss := resolve(p.S)
	pid, pConst, pBound, pMiss := resolve(p.P)
	oid, oConst, oBound, oMiss := resolve(p.O)
	if sMiss || pMiss || oMiss {
		return 0 // provably empty: evaluate first and stop immediately
	}

	// Exact count over the constant components.
	var key [3]store.ID
	if sConst {
		key[0] = sid
	}
	if pConst {
		key[1] = pid
	}
	if oConst {
		key[2] = oid
	}
	base := float64(store.Count(st, key[0], key[1], key[2]))
	if base == 0 {
		return 0
	}

	// Reduce for variables that will be bound at runtime. Each *distinct*
	// variable is one binding event, so it contributes one division even
	// when it occurs at several positions of the pattern (?x :p ?x): of a
	// repeated variable's candidate divisors, only the most selective
	// (largest) applies. The accumulator is a fixed-order slice, not a
	// map, so the product is bit-for-bit deterministic across runs.
	type varDiv struct {
		name string
		div  float64
	}
	var divs []varDiv
	applyDiv := func(name string, d float64) {
		if d <= 0 {
			return
		}
		for i := range divs {
			if divs[i].name == name {
				divs[i].div = max(divs[i].div, d)
				return
			}
		}
		divs = append(divs, varDiv{name, d})
	}
	stats := st.Stats()
	if sBound && !sConst {
		if pConst && stats.DistinctSubjects(pid) > 0 {
			applyDiv(p.S.Var, float64(stats.DistinctSubjects(pid)))
		} else if stats.TotalDistinctSubjects() > 0 {
			applyDiv(p.S.Var, float64(stats.TotalDistinctSubjects()))
		}
	}
	if oBound && !oConst {
		if pConst && stats.DistinctObjects(pid) > 0 {
			applyDiv(p.O.Var, float64(stats.DistinctObjects(pid)))
		} else if stats.TotalDistinctObjects() > 0 {
			applyDiv(p.O.Var, float64(stats.TotalDistinctObjects()))
		}
	}
	if pBound && !pConst {
		applyDiv(p.P.Var, float64(max(1, stats.DistinctPredicates())))
	}
	div := 1.0
	for _, vd := range divs {
		div *= vd.div
	}
	est := base / div
	if est < 1 {
		est = 1
	}
	return est
}
