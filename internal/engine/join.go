package engine

// The join planner's operator choices for one BGP: per-step join
// operators chosen from the store's statistics (the Stocker et al.
// estimates reorder() already computes) and run by the batch executor's
// scan → join chains (vec.go):
//
//   - merge joins over two index ranges co-sorted on the shared variable
//     (the RDF-3X fast path over the SPO/POS/OSP permutations),
//   - hash joins that build on the smaller estimated side, both for
//     ordinary shared-variable steps and for disconnected trailing blocks
//     linked only by an equality FILTER (the Q4/Q5a shape, where a
//     nested loop is quadratic), and
//   - index nested loops everywhere else.
//
// This file also holds the helpers both BGP executors share: the
// compiled filter conjuncts (rowFilter), the ID hash table, and the
// galloping cursor; the value-equality tables are in valuekey.go.
// Every choice is recorded in the compiled plan's notes, surfaced by
// Engine.Explain, sp2bquery -explain, and the harness JSON report.

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"sp2bench/internal/algebra"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

const (
	// hashJoinThreshold is the estimated input cardinality above which a
	// join step switches from index nested loop to hash: below it the
	// per-row index probe (a directory lookup plus, for a two- or
	// three-component prefix, a search of one leading ID's run) is
	// cheaper than building a table.
	hashJoinThreshold = 512
	// crossCacheCap bounds the estimated size of a keyless disconnected
	// block the planner is willing to materialize as a cached cross
	// product instead of re-deriving it per left row.
	crossCacheCap = 1 << 20
)

// opKind is the operator evaluating one stage of a BGP chain.
type opKind uint8

const (
	opScan    opKind = iota // the anchor: index range scan (possibly partitioned)
	opNL                    // index nested-loop probe
	opMerge                 // merge join against a co-sorted index range
	opHash                  // hash probe into the pattern's matching triples
	opHashSeg               // hash probe into a materialized disconnected block
)

func (k opKind) String() string {
	switch k {
	case opScan:
		return "scan"
	case opNL:
		return "nl"
	case opMerge:
		return "merge"
	case opHash:
		return "hash"
	default:
		return "hashseg"
	}
}

// physStep is the join operator mergeStep or hashStep chose for one
// pattern step.
type physStep struct {
	kind opKind

	// opMerge: the range co-sorted on the join variable.
	// opHash: the constant-prefix range the build scans once.
	rng store.IndexRange

	joinSlot int // slot of the shared variable
	keyPos   int // opHash: SPO position of the shared variable
	lead     int // opMerge: component position of the join var in rng's order
}

// segPlan is a disconnected trailing block: evaluated once (it shares no
// variable with anything bound before it), materialized, and probed per
// left row — by equality key when a linking FILTER provides one, as a
// cached cross product otherwise.
type segPlan struct {
	steps     []patternStep
	link      rowFilter // conjuncts referencing outside vars, checked on merged rows
	buildSlot int       // key slot within block rows (-1 = keyless)
	probeSlot int       // key slot on the left stream (-1 = keyless)
	slots     []int     // slots the block binds, ascending: the layout of a block row
}

// fastCmp is a filter conjunct of the shape `?a OP ?b` compiled to slot
// accesses: the per-row hot path skips the expression tree, the Binding
// interface, and its per-variable map lookups.
type fastCmp struct {
	op   sparql.BinaryOp
	l, r int
	// ids marks an `=`/`!=` with a side that is never a literal (see
	// resourceSlots): distinct IDs are then distinct, unequal terms.
	ids bool
}

// sp2b:valuecmp implements FILTER comparison operators over slot pairs
func (f fastCmp) eval(c *compiled, m *termMemo, row []store.ID) bool {
	return f.cmpIDs(c, m, row[f.l], row[f.r])
}

// cmpIDs is the comparison core shared by the per-row eval above and
// the column kernels of the vectorized path (vec.go). It decides from
// the calling operator's memo of each ID's term (termInfo) wherever
// valueEqual and valueCompare would, and resolves terms only for the
// remaining literal pairs (a boolean or a date against anything but
// itself):
//
//   - `=`/`!=` between distinct IDs where either term is an IRI or a
//     blank node: unequal, because a non-literal is value-equal only to
//     itself and every TermSource interns one ID per term;
//   - two numeric literals: compared as floats;
//   - two string-ish literals: compared by lexical form.
//
// sp2b:valuecmp compares by term value, never by raw dictionary ID
func (f fastCmp) cmpIDs(c *compiled, m *termMemo, a, b store.ID) bool {
	if a == store.NoID || b == store.NoID {
		return false // unbound: the expression evaluator raises, FILTER rejects
	}
	dict := c.eng.src.TermDict()
	switch f.op {
	case sparql.OpEq, sparql.OpNeq:
		// sp2b:idcmp=ok identical IDs are value-equal; only the not-equal branch falls through to EqualTerms
		if a == b {
			return f.op == sparql.OpEq
		}
		if f.ids {
			// The IDs differ and one term is an IRI or a blank node: the
			// same verdict as the non-literal case below, without the memo.
			return f.op == sparql.OpNeq
		}
		ia, ib := m.info(dict, a), m.info(dict, b)
		var eq bool
		switch {
		case !ia.literal || !ib.literal:
			// sp2b:idcmp=ok the IDs differ and one term is not a literal: one ID per term makes them distinct, hence unequal, terms
			return f.op == sparql.OpNeq
		case ia.numeric && ib.numeric:
			eq = ia.num == ib.num
		case ia.stringish && ib.stringish:
			eq = ia.lex == ib.lex
		default:
			var err error
			if eq, err = algebra.EqualTerms(dict.Term(a), dict.Term(b)); err != nil {
				return false
			}
		}
		return eq == (f.op == sparql.OpEq)
	default:
		ia, ib := m.info(dict, a), m.info(dict, b)
		var order int
		switch {
		case ia.numeric && ib.numeric:
			order = cmp.Compare(ia.num, ib.num)
		case ia.stringish && ib.stringish:
			order = strings.Compare(ia.lex, ib.lex)
		default:
			var err error
			if order, err = algebra.CompareTerms(dict.Term(a), dict.Term(b)); err != nil {
				return false
			}
		}
		switch f.op {
		case sparql.OpLt:
			return order < 0
		case sparql.OpGt:
			return order > 0
		case sparql.OpLeq:
			return order <= 0
		default: // OpGeq
			return order >= 0
		}
	}
}

// rowFilter is a list of filter conjuncts compiled once at plan time:
// fast holds the slot-resolved `?a OP ?b` comparisons, slow everything
// else, which goes through the expression evaluator. Every executor
// evaluates pushed filters through it — per row (pass) on the tuple
// operators, per batch (applyVecFilters) on the vectorized ones.
type rowFilter struct {
	fast []fastCmp
	slow []sparql.Expr
}

// compileFilters splits filter conjuncts into fast slot comparisons and
// the general remainder. res marks the slots that hold no literal in
// any solution of the BGP the conjuncts run in (nil: none known).
func (c *compiled) compileFilters(filters []sparql.Expr, res map[int]bool) rowFilter {
	var f rowFilter
	for _, e := range filters {
		bin, ok := e.(*sparql.Binary)
		if ok {
			switch bin.Op {
			case sparql.OpEq, sparql.OpNeq, sparql.OpLt, sparql.OpGt, sparql.OpLeq, sparql.OpGeq:
				lv, ok1 := bin.Left.(*sparql.VarExpr)
				rv, ok2 := bin.Right.(*sparql.VarExpr)
				if ok1 && ok2 {
					fc := fastCmp{op: bin.Op, l: c.slot(lv.Name), r: c.slot(rv.Name)}
					fc.ids = (fc.op == sparql.OpEq || fc.op == sparql.OpNeq) && (res[fc.l] || res[fc.r])
					f.fast = append(f.fast, fc)
					continue
				}
			}
		}
		f.slow = append(f.slow, e)
	}
	return f
}

// pass evaluates every conjunct on row; a type error rejects the row,
// as it does in a FILTER. m is the calling operator's comparison memo.
func (f *rowFilter) pass(c *compiled, m *termMemo, row []store.ID) bool {
	for _, fc := range f.fast {
		if !fc.eval(c, m, row) {
			return false
		}
	}
	for _, e := range f.slow {
		v, err := algebra.EvalBool(e, rowBinding{c: c, row: row})
		if err != nil || !v {
			return false
		}
	}
	return true
}

// idTable is a linear-probing open-addressing map from store.ID to V,
// sized once at build time. On the per-row probe path it beats the
// generic map: one multiply, a mask, and (almost always) one key
// comparison. NoID (never a valid key: variables are bound) marks empty
// slots.
type idTable[V any] struct {
	mask uint32
	keys []store.ID
	vals []V
}

func newIDTable[V any](capacity int) *idTable[V] {
	n := 8
	for n < 2*capacity {
		n <<= 1
	}
	t := &idTable[V]{mask: uint32(n - 1), keys: make([]store.ID, n), vals: make([]V, n)}
	for i := range t.keys {
		t.keys[i] = store.NoID
	}
	return t
}

// at returns the value cell for k, claiming an empty slot on first use.
func (t *idTable[V]) at(k store.ID) *V {
	i, _ := t.claim(k)
	return &t.vals[i]
}

// claim returns the index of k's cell and whether this call claimed its
// empty slot.
func (t *idTable[V]) claim(k store.ID) (uint32, bool) {
	i := (uint32(k) * 2654435761) & t.mask
	for {
		switch t.keys[i] {
		case k:
			return i, false
		case store.NoID:
			t.keys[i] = k
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// get returns the value stored under k, or V's zero value.
func (t *idTable[V]) get(k store.ID) V {
	i := (uint32(k) * 2654435761) & t.mask
	for {
		switch t.keys[i] {
		case k:
			return t.vals[i]
		case store.NoID:
			var zero V
			return zero
		}
		i = (i + 1) & t.mask
	}
}

// ordPos maps an index order's component position to the SPO position it
// holds: component i of an ord-ordered row is SPO component ordPos[ord][i].
var ordPos = [3][3]int{
	store.OrderSPO: {0, 1, 2},
	store.OrderPOS: {1, 2, 0},
	store.OrderOSP: {2, 0, 1},
}

// segDesc renders a disconnected block for EXPLAIN and the trace: its
// hash key (or cross-product marker) and step count.
func segDesc(c *compiled, seg *segPlan) string {
	if seg.buildSlot >= 0 {
		return fmt.Sprintf("key=?%s/?%s steps=%d", c.names[seg.probeSlot], c.names[seg.buildSlot], len(seg.steps))
	}
	return fmt.Sprintf("cross steps=%d", len(seg.steps))
}

// constTriple is a pattern's constant components, NoID elsewhere.
type constTriple [3]store.ID

func (t constTriple) Spread() (store.ID, store.ID, store.ID) { return t[0], t[1], t[2] }

// constWant is the pattern's index key with nothing bound: its constants
// and pins, NoID at free variables (and at a constant missing from the
// dictionary, which makes the whole BGP empty anyway).
func constWant(step patternStep) constTriple {
	var want constTriple
	for i := 0; i < 3; i++ {
		want[i] = step.pos[i].id
	}
	return want
}

// leadVarSlot returns the slot of the variable an index-ordered scan of
// the range emits its rows sorted by: the first post-prefix component
// holding a free variable, provided every component before it is
// constant (residual constants and pins keep the remaining components
// sorted).
func leadVarSlot(step patternStep, rng store.IndexRange) int {
	for i := rng.Lead; i < 3; i++ {
		pp := step.pos[ordPos[rng.Ord][i]]
		if pp.isVar && pp.id == store.NoID {
			return pp.slot
		}
		// A residual constant fixes this component; sortedness carries to
		// the next one.
	}
	return -1
}

// sharedBoundVars lists the pattern's variables already in bound, sorted.
func sharedBoundVars(p sparql.TriplePattern, bound map[string]bool) []string {
	var out []string
	for _, v := range p.Vars() {
		if bound[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func addVars(bound map[string]bool, p sparql.TriplePattern) {
	for _, t := range [...]*sparql.PatternTerm{&p.S, &p.P, &p.O} {
		if t.IsVar {
			bound[t.Var] = true
		}
	}
}

// segmentEnd grows the connected component of ordered[i] through the
// following patterns and returns the index one past its contiguous
// extent.
func segmentEnd(ordered []sparql.TriplePattern, i int) int {
	comp := map[string]bool{}
	addVars(comp, ordered[i])
	j := i + 1
	for j < len(ordered) {
		connects := false
		for _, v := range ordered[j].Vars() {
			if comp[v] {
				connects = true
			}
		}
		if !connects {
			break
		}
		addVars(comp, ordered[j])
		j++
	}
	return j
}

// mergeStep chooses an opMerge stage when the step joins on exactly one
// bound variable, the left stream is sorted on it, and some index serves
// the pattern's constants as a prefix with the join variable as the first
// component after them.
//
// When no index orders all of the pattern's constants before the join
// variable, the leftover constants become a residual filter and the
// range spans every row of the shorter prefix — Q2's star merges walk
// the whole SPO index. Galloping that pays off for a dense sorted
// stream, but when the exact matches are few enough for hashStep to
// build on, hashing them reads fewer rows than the residual range holds,
// and the merge yields to the hash join.
//
// Without open, only the choice is reported: the co-sorted range is
// not opened, and the physStep carries none.
func (c *compiled) mergeStep(step patternStep, joinVar string, sortSlot int, leftCard float64, open bool) (physStep, bool) {
	vslot, ok := c.slots[joinVar]
	if !ok || sortSlot < 0 || vslot != sortSlot {
		return physStep{}, false
	}
	want := constWant(step)
	consts := 0
	for _, id := range want {
		if id != store.NoID {
			consts++
		}
	}
	bestOrd, bestLead := store.OrderSPO, -1
	for _, ord := range []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP} {
		lead := 0
		for lead < 3 && want[ordPos[ord][lead]] != store.NoID {
			lead++
		}
		if lead == 3 {
			return physStep{}, false // fully constant: nothing to merge on
		}
		pp := step.pos[ordPos[ord][lead]]
		if pp.isVar && pp.slot == vslot && lead > bestLead {
			bestOrd, bestLead = ord, lead
		}
	}
	if bestLead < 0 {
		return physStep{}, false
	}
	if bestLead < consts && c.hashBuilds(want, leftCard) {
		return physStep{}, false
	}
	if !open {
		return physStep{kind: opMerge, joinSlot: vslot, lead: bestLead}, true
	}
	// Only the chosen order's range is opened: every RangeIn locates
	// its rows afresh, in the base and in a snapshot's delta.
	rng := c.eng.src.RangeIn(bestOrd, want[0], want[1], want[2])
	return physStep{kind: opMerge, rng: rng, joinSlot: vslot, lead: bestLead}, true
}

// hashBuilds reports whether hashStep builds on the pattern's matching
// triples: hash joins are on, the join's estimated input is large enough
// to pay for a table, and the build side is the smaller one — otherwise
// the index nested loop, which builds nothing and probes the (already
// sorted) index, is the better operator.
func (c *compiled) hashBuilds(want constTriple, leftCard float64) bool {
	if !c.eng.opts.HashJoins || leftCard < hashJoinThreshold {
		return false
	}
	buildCard := float64(c.eng.src.Count(want.Spread()))
	return buildCard > 0 && buildCard < leftCard
}

// hashStep chooses an opHash stage when hashBuilds says so: the pattern's
// matching triples are hashed on the shared variable once and probed per
// left row.
func (c *compiled) hashStep(step patternStep, joinVar string, leftCard float64) (physStep, bool) {
	vslot, ok := c.slots[joinVar]
	if !ok {
		return physStep{}, false
	}
	keyPos := -1
	for i := 0; i < 3; i++ {
		if pp := step.pos[i]; pp.isVar && pp.slot == vslot {
			keyPos = i
			break
		}
	}
	if keyPos < 0 {
		return physStep{}, false
	}
	want := constWant(step)
	if !c.hashBuilds(want, leftCard) {
		return physStep{}, false
	}
	rng := c.eng.src.Range(want.Spread())
	return physStep{kind: opHash, rng: rng, joinSlot: vslot, keyPos: keyPos}, true
}

// buildSegPlan compiles a disconnected block into a segPlan. Filters
// attached to the block's steps are split: conjuncts confined to the
// block's variables stay internal (evaluated while materializing), the
// rest become link filters evaluated on merged rows — and an `?a = ?b`
// link with one side bound before the block supplies the hash key.
func (c *compiled) buildSegPlan(steps []patternStep, bound map[string]bool, segCard float64) (*segPlan, bool) {
	// The block's variables are the slots its steps bind, pinned ones
	// included.
	segSlots := map[int]bool{}
	for _, sp := range steps {
		addStepSlots(segSlots, sp)
	}
	segVars := map[string]bool{}
	for s := range segSlots {
		segVars[c.names[s]] = true
	}
	seg := &segPlan{buildSlot: -1, probeSlot: -1}
	res := c.resourceSlots(steps)
	var links []sparql.Expr
	for _, sp := range steps {
		internal := sp
		internal.conjuncts = nil
		for _, f := range sp.conjuncts {
			if allIn(sparql.ExprVars(f), segVars) {
				internal.conjuncts = append(internal.conjuncts, f)
				continue
			}
			if seg.buildSlot < 0 {
				if ls, bs, ok := segEquiKey(f, bound, segVars); ok {
					seg.probeSlot = c.slot(ls)
					seg.buildSlot = c.slot(bs)
					// The key conjunct stays a link filter too: hashing is
					// by term identity, the filter is the semantic check.
				}
			}
			links = append(links, f)
		}
		// sp.filt compiled the link filters too, and those reference
		// variables the block never binds: recompile what stays inside.
		internal.filt = c.compileFilters(internal.conjuncts, res)
		seg.steps = append(seg.steps, internal)
	}
	if seg.buildSlot < 0 && segCard > crossCacheCap {
		return nil, false // keyless and huge: don't materialize
	}
	seg.link = c.compileFilters(links, res)
	seg.slots = sortedSlots(segSlots)
	return seg, true
}

// segEquiKey recognizes `?left = ?seg` conjuncts usable as the block's
// hash key: one side bound before the block, the other bound inside it.
func segEquiKey(e sparql.Expr, bound, segVars map[string]bool) (leftVar, segVar string, ok bool) {
	bin, isBin := e.(*sparql.Binary)
	if !isBin || bin.Op != sparql.OpEq {
		return "", "", false
	}
	lv, ok1 := bin.Left.(*sparql.VarExpr)
	rv, ok2 := bin.Right.(*sparql.VarExpr)
	if !ok1 || !ok2 {
		return "", "", false
	}
	switch {
	case bound[lv.Name] && segVars[rv.Name] && !segVars[lv.Name]:
		return lv.Name, rv.Name, true
	case bound[rv.Name] && segVars[lv.Name] && !segVars[rv.Name]:
		return rv.Name, lv.Name, true
	default:
		return "", "", false
	}
}

func passFilt(row, filt store.EncTriple) bool {
	return (filt[0] == store.NoID || row[0] == filt[0]) &&
		(filt[1] == store.NoID || row[1] == filt[1]) &&
		(filt[2] == store.NoID || row[2] == filt[2])
}

// unpermute maps an index-ordered row back to SPO component order.
func unpermute(ord store.Order, row store.EncTriple) store.EncTriple {
	var t store.EncTriple
	for i := 0; i < 3; i++ {
		t[ordPos[ord][i]] = row[i]
	}
	return t
}
