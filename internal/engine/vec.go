package engine

// The engine's one executor: batch-at-a-time operators passing
// columnar Batch slabs of dictionary IDs. A BGP runs as a pipeline — an
// index range scan, then one nested-loop, merge, hash or hashed-block
// join stage per step, chosen by join.go's planner helpers. Scans
// decode store.IndexRange runs directly into columns, merge joins walk
// runs batch-wise with a galloping cursor, and FILTER conjuncts compile
// to column-at-a-time kernels over the selection vector.
//
// Every algebra shape has a batch operator. A join of groups that
// flattens runs as a UNION of BGP chains (joinBlocks); a single-pattern
// OPTIONAL probes per left row (Q2), an uncorrelated one hashes its
// right side; the closed-world negation (Q6, Q7) drops the left rows a
// right side extends, by hash or, over a correlated right side, by an
// existence search per key (vecSemi). Every other join or OPTIONAL is a
// bind join (vecBind, bind.go), and an empty group the one-row unit
// (vecUnit). SELECT, ASK (to the first non-empty batch) and the core
// SELECT of an aggregate (forms.go) all run on these operators.

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"sp2bench/internal/algebra"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// vecOp is the batch iterator protocol. open (re)starts the operator;
// next returns the next non-empty batch of solutions, or nil at
// exhaustion. Returned batches are dense (no pending selection), owned
// by the operator, and valid until the following next call.
type vecOp interface {
	open()
	next() (*Batch, error)
}

// minBatchSize floors estimate-sized batches: a planner underestimate
// then costs extra batches of 64 rows, never batches of one.
const minBatchSize = 64

// newBatch allocates a batch for an operator expected to emit about
// rows rows: one column per variable slot and a row capacity of rows
// clamped to [minBatchSize, Options.BatchSize] (DefaultBatchSize when
// unset), so a small result does not pay for a full-size slab in every
// pipeline stage.
func (c *compiled) newBatch(rows float64) *Batch {
	limit := c.eng.opts.BatchSize
	if limit <= 0 {
		limit = DefaultBatchSize
	}
	capacity := limit
	if rows < float64(limit) {
		capacity = min(limit, max(minBatchSize, int(math.Ceil(rows))))
	}
	return NewBatch(len(c.names), capacity)
}

// maxJoinBlocks bounds the BGPs one explicit join of groups flattens
// into: every UNION joined in multiplies them.
const maxJoinBlocks = 64

// vecBlock is one BGP with its filter conjuncts.
type vecBlock struct {
	patterns  []sparql.TriplePattern
	conjuncts []sparql.Expr
}

// joinBlocks flattens a join of groups into the blocks whose UNION, in
// order, it equals, or reports that it cannot. A BGP (the empty group
// included), a FILTER over blocks, a UNION of blocks and a join of
// blocks flatten; a join distributes over the UNIONs below it,
// left-major, each (left, right) pair of blocks becoming one BGP with
// both blocks' patterns and conjuncts. Every conjunct must read only
// variables of its own block's patterns, which bind them in every
// solution: it then sees the same values in the joined BGP as in its
// group, and substituting left bindings into the right group changes
// nothing either. An OPTIONAL, a conjunct reading another group's
// variables, or more than maxJoinBlocks BGPs do not flatten; such a
// join runs as a bind join (vecBind).
func joinBlocks(n algebra.Node) ([]vecBlock, bool) {
	switch node := n.(type) {
	case *algebra.BGPNode:
		return []vecBlock{{patterns: node.Patterns}}, true
	case *algebra.FilterNode:
		in, ok := joinBlocks(node.Input)
		if !ok {
			return nil, false
		}
		conjs := algebra.SplitConjuncts(node.Cond)
		out := make([]vecBlock, len(in))
		for i, b := range in {
			vars := map[string]bool{}
			for _, p := range b.patterns {
				addVars(vars, p)
			}
			for _, conj := range conjs {
				if !allIn(sparql.ExprVars(conj), vars) {
					return nil, false
				}
			}
			out[i] = vecBlock{b.patterns, append(slices.Clip(b.conjuncts), conjs...)}
		}
		return out, true
	case *algebra.UnionNode:
		l, ok := joinBlocks(node.Left)
		if !ok {
			return nil, false
		}
		r, ok := joinBlocks(node.Right)
		if !ok || len(l)+len(r) > maxJoinBlocks {
			return nil, false
		}
		return append(l, r...), true
	case *algebra.JoinNode:
		l, ok := joinBlocks(node.Left)
		if !ok {
			return nil, false
		}
		r, ok := joinBlocks(node.Right)
		if !ok || len(l)*len(r) > maxJoinBlocks {
			return nil, false
		}
		var out []vecBlock
		for _, lb := range l {
			for _, rb := range r {
				out = append(out, vecBlock{
					patterns:  append(slices.Clip(lb.patterns), rb.patterns...),
					conjuncts: append(slices.Clip(lb.conjuncts), rb.conjuncts...),
				})
			}
		}
		return out, true
	}
	return nil, false
}

// probeJoinShape reports whether an OPTIONAL is the shape vecLeftJoin
// probes per left row (Q2's): a single-pattern right side and no
// condition.
func probeJoinShape(node *algebra.LeftJoinNode) bool {
	rbgp, ok := node.Right.(*algebra.BGPNode)
	return ok && node.Cond == nil && len(rbgp.Patterns) == 1
}

// antiJoinShape recognizes the closed-world-negation idiom (Q6/Q7): a
// FILTER whose conjuncts are all `!bound(?v)` directly over a left join
// whose right side certainly binds every such ?v, which neither the
// left side nor an anchor row can bind. A matched left row then fails
// the filter, so the join drops it at its first passing candidate.
func (c *compiled) antiJoinShape(f *algebra.FilterNode, lj *algebra.LeftJoinNode) bool {
	certain := certainVars(lj.Right)
	left := toSet(lj.Left.Vars())
	for _, conj := range algebra.SplitConjuncts(f.Cond) {
		v, ok := notBound(conj)
		if !ok || !certain[v] || left[v] || c.anchorMayBind(v) {
			return false
		}
	}
	return true
}

// notBound returns ?v of a `!bound(?v)` conjunct.
func notBound(e sparql.Expr) (string, bool) {
	not, ok := e.(*sparql.Not)
	if !ok {
		return "", false
	}
	b, ok := not.Inner.(*sparql.Bound)
	if !ok {
		return "", false
	}
	return b.Var, true
}

// certainVars returns the variables plan node n binds in every one of
// its solutions.
func certainVars(n algebra.Node) map[string]bool {
	switch node := n.(type) {
	case *algebra.BGPNode:
		return toSet(node.Vars())
	case *algebra.JoinNode:
		out := certainVars(node.Left)
		for v := range certainVars(node.Right) {
			out[v] = true
		}
		return out
	case *algebra.LeftJoinNode:
		return certainVars(node.Left)
	case *algebra.UnionNode:
		l, r := certainVars(node.Left), certainVars(node.Right)
		for v := range l {
			if !r[v] {
				delete(l, v)
			}
		}
		return l
	case *algebra.FilterNode:
		return certainVars(node.Input)
	}
	return map[string]bool{} // the modifiers never occur below a join
}

// mentioned returns the variables of plan node n's patterns and
// conditions: a right side mentioning a variable of its left side is
// correlated with it, through a pattern or a FILTER.
func mentioned(n algebra.Node) []string {
	set := map[string]bool{}
	var walk func(n algebra.Node)
	cond := func(e sparql.Expr) {
		if e != nil {
			for _, v := range sparql.ExprVars(e) {
				set[v] = true
			}
		}
	}
	walk = func(n algebra.Node) {
		switch node := n.(type) {
		case *algebra.BGPNode:
			for _, p := range node.Patterns {
				addVars(set, p)
			}
		case *algebra.JoinNode:
			walk(node.Left)
			walk(node.Right)
		case *algebra.LeftJoinNode:
			walk(node.Left)
			walk(node.Right)
			cond(node.Cond)
		case *algebra.UnionNode:
			walk(node.Left)
			walk(node.Right)
		case *algebra.FilterNode:
			walk(node.Input)
			cond(node.Cond)
		}
	}
	walk(n)
	return sortedVars(set)
}

// vwrap installs the trace node for a freshly built vec operator; a
// pass-through when the query is not running under WithAnalyze.
func (c *compiled) vwrap(op vecOp, n *tnode) vecOp {
	if c.trace == nil {
		return op
	}
	c.trace.root = n // build is depth-first; the last wrap is the root
	return &vecTraced{inner: op, n: n}
}

// childTNodes recovers the trace nodes of already-wrapped vec children.
func childTNodes(children ...vecOp) []*tnode {
	var out []*tnode
	for _, ch := range children {
		if t, ok := ch.(*vecTraced); ok {
			out = append(out, t.n)
		}
	}
	return out
}

// buildVecNode compiles one algebra node into a vec operator. live
// marks the slots the operators above n read; each case passes its
// input the slots it reads itself on top (see liveSlots).
func (c *compiled) buildVecNode(n algebra.Node, live liveSlots) (vecOp, error) {
	switch node := n.(type) {
	case *algebra.BGPNode:
		return c.buildVecBGP(node.Patterns, nil, live), nil
	case *algebra.FilterNode:
		if bgp, ok := node.Input.(*algebra.BGPNode); ok {
			// The conjuncts are placed in the BGP's stages: they need no
			// live slot.
			return c.buildVecBGP(bgp.Patterns, algebra.SplitConjuncts(node.Cond), live), nil
		}
		live = c.liveWith(live, sparql.ExprVars(node.Cond))
		if lj, ok := node.Input.(*algebra.LeftJoinNode); ok && c.antiJoinShape(node, lj) {
			if isUncorrelated(lj.Right, lj.Left.Vars()) {
				return c.buildVecHashLeftJoin(lj, true, live)
			}
			if op, ok, err := c.buildVecAnti(lj, live); ok || err != nil {
				return op, err
			}
		}
		in, err := c.buildVecNode(node.Input, live)
		if err != nil {
			return nil, err
		}
		f := &vecFilter{c: c, input: in, conds: c.compileFilters(algebra.SplitConjuncts(node.Cond), nil)}
		return c.vwrap(f, &tnode{op: "filter", detail: "vectorized", children: childTNodes(in)}), nil
	case *algebra.LeftJoinNode:
		switch {
		case probeJoinShape(node):
			return c.buildVecLeftJoin(node, live)
		case isUncorrelated(node.Right, node.Left.Vars()):
			return c.buildVecHashLeftJoin(node, false, live)
		}
		return c.buildVecBind(node.Left, node.Right, node.Cond, true, live)
	case *algebra.UnionNode:
		l, err := c.buildVecNode(node.Left, live)
		if err != nil {
			return nil, err
		}
		r, err := c.buildVecNode(node.Right, live)
		if err != nil {
			return nil, err
		}
		return c.unionVec(l, r), nil
	case *algebra.JoinNode:
		blocks, ok := joinBlocks(node)
		if !ok {
			return c.buildVecBind(node.Left, node.Right, nil, false, live)
		}
		// Flattened: the UNION, in order, of one BGP per block pair.
		var op vecOp
		for _, b := range blocks {
			bgp := c.buildVecBGP(b.patterns, b.conjuncts, live)
			if op == nil {
				op = bgp
			} else {
				op = c.unionVec(op, bgp)
			}
		}
		c.note(fmt.Sprintf("join of groups: flattened into %d BGPs", len(blocks)))
		return op, nil
	case *algebra.ProjectNode:
		return c.buildVecProject(node, -1, live)
	case *algebra.DistinctNode:
		// Below a DISTINCT over a projection, only the projected
		// variables are live: the operators below may drop duplicates.
		live = nil
		if proj, ok := node.Input.(*algebra.ProjectNode); ok {
			live = c.liveWith(c.noneLive(), proj.Columns)
		}
		in, err := c.buildVecNode(node.Input, live)
		if err != nil {
			return nil, err
		}
		d := &vecDistinct{c: c, input: in, set: newDistinctSet(c.distinctSlots(node.Input))}
		return c.vwrap(d, &tnode{op: "distinct", detail: "vectorized", children: childTNodes(in)}), nil
	case *algebra.OrderNode:
		return c.buildVecOrder(node, -1, live)
	case *algebra.SliceNode:
		// ORDER BY under a LIMIT needs only the best offset+limit rows.
		keep := -1
		if node.Limit >= 0 {
			if keep = max(0, node.Offset) + node.Limit; keep < 0 {
				keep = -1 // the sum overflows: no bound worth keeping
			}
		}
		// A slice counts rows, so below it every slot is live, except
		// under a LIMIT 1 (ASK's wrapper): the first row's live values
		// are the same with or without a semi-join stage below.
		if node.Limit != 1 || node.Offset > 0 {
			live = nil
		}
		in, err := c.buildVecBounded(node.Input, keep, live)
		if err != nil {
			return nil, err
		}
		s := &vecSlice{input: in, offset: node.Offset, limit: node.Limit}
		return c.vwrap(s, &tnode{op: "slice", detail: "vectorized", children: childTNodes(in)}), nil
	default:
		return nil, fmt.Errorf("engine: vec: unplanned node %T", n)
	}
}

// unionVec drains l, then r.
func (c *compiled) unionVec(l, r vecOp) vecOp {
	u := &vecUnion{left: l, right: r}
	return c.vwrap(u, &tnode{op: "union", detail: "vectorized", children: childTNodes(l, r)})
}

// buildVecBounded builds the input of a slice that keeps at most keep
// rows (-1: unbounded): an ORDER BY under an optional projection keeps
// only its best keep rows (see vecOrder). Anything else — DISTINCT
// between the order and the slice included, since duplicates removed
// after the sort would pull later rows into the page — is built in full.
func (c *compiled) buildVecBounded(n algebra.Node, keep int, live liveSlots) (vecOp, error) {
	switch node := n.(type) {
	case *algebra.ProjectNode:
		if _, ok := node.Input.(*algebra.OrderNode); ok {
			return c.buildVecProject(node, keep, live)
		}
	case *algebra.OrderNode:
		return c.buildVecOrder(node, keep, live)
	}
	return c.buildVecNode(n, live)
}

// buildVecProject compiles a projection; keep bounds an ORDER BY directly
// beneath it (see buildVecBounded).
func (c *compiled) buildVecProject(node *algebra.ProjectNode, keep int, live liveSlots) (vecOp, error) {
	in, err := c.buildVecBounded(node.Input, keep, live)
	if err != nil {
		return nil, err
	}
	cols := make([]bool, len(c.names))
	for _, v := range node.Columns {
		if s, ok := c.slots[v]; ok {
			cols[s] = true
		}
	}
	p := &vecProject{input: in, keep: cols}
	return c.vwrap(p, &tnode{op: "project", detail: "vectorized", children: childTNodes(in)}), nil
}

// buildVecOrder compiles an ORDER BY that keeps its best keep rows in a
// bounded heap, or every row when keep is -1.
func (c *compiled) buildVecOrder(node *algebra.OrderNode, keep int, live liveSlots) (vecOp, error) {
	vars := make([]string, len(node.Conds))
	for i, oc := range node.Conds {
		vars[i] = oc.Var
	}
	in, err := c.buildVecNode(node.Input, c.liveWith(live, vars))
	if err != nil {
		return nil, err
	}
	var keys []orderKey
	for _, oc := range node.Conds {
		if s, ok := c.slots[oc.Var]; ok {
			keys = append(keys, orderKey{slot: s, desc: oc.Desc})
		}
	}
	o := &vecOrder{c: c, input: in, keys: keys, keep: keep}
	detail := "vectorized"
	if keep >= 0 {
		detail = fmt.Sprintf("vectorized top-%d heap", keep)
		c.note("order: " + detail)
	}
	return c.vwrap(o, &tnode{op: "order", detail: detail, children: childTNodes(in)}), nil
}

// compBind maps one SPO component of a pattern to a variable slot.
type compBind struct {
	comp int
	slot int
}

// buildVecBGP compiles a BGP into its batch pipeline, traced under
// WithAnalyze (see planVecBGP).
func (c *compiled) buildVecBGP(patterns []sparql.TriplePattern, conjuncts []sparql.Expr, live liveSlots) vecOp {
	return c.vwrap(c.planVecBGP(patterns, conjuncts, live))
}

// planVecBGP compiles a BGP into a scan → join-stage pipeline — pattern
// reordering, block swap and filter placement (prepareBGP), one join
// operator per step (planVecChain) — and returns it with its trace
// node. A partitioned BGP runs one pipeline per part of the anchor
// range under vecParallel. Trailing stages that bind only slots live
// leaves unmarked run as one semi-join stage (see cutSemi); a nil live
// keeps every stage. Conjuncts reading no variable of the BGP run once
// per run: in a vecFilter above the chain, or on the anchor row. A BGP
// without patterns is the unit row. Inside a correlated subtree
// (c.anchor set) the chain starts from the anchor row and is never
// partitioned: it runs once per left row of a bind join.
func (c *compiled) planVecBGP(patterns []sparql.TriplePattern, conjuncts []sparql.Expr, live liveSlots) (vecOp, *tnode) {
	a := c.anchor
	var outer []string
	if a != nil {
		outer = a.certain
	}
	b, ordered := c.prepareBGP(patterns, conjuncts, outer)
	if b.empty {
		// A constant is missing from the dictionary: no rows, ever.
		c.note("vec operators: empty (a constant is not in the dictionary)")
		return vecEmpty{}, &tnode{op: "bgp", detail: "vectorized empty"}
	}
	pre := c.compileFilters(b.pre, nil)
	if len(b.steps) == 0 {
		c.note("vec operators: unit")
		return &vecUnit{c: c, anchor: a, conds: pre}, &tnode{op: "unit", detail: "vectorized"}
	}
	ch := c.planVecChain(b.steps, ordered, true, live, a)
	n := &tnode{op: "bgp", detail: "vectorized", est: ch.est, steps: ch.tsteps}
	var pipe vecOp
	switch {
	case a != nil:
		ch.unit = &vecUnit{c: c, anchor: a, conds: pre}
		pipe = ch.link(c.cancel)
	default:
		if parts := c.partitionAnchor(ch.scan.rng, ch.touched); len(parts) == 1 {
			pipe = ch.link(c.cancel)
		} else {
			par := &vecParallel{c: c, ch: ch, parts: parts}
			c.cleanups = append(c.cleanups, par.shutdown)
			fmt.Fprintf(&ch.desc, " parallel=%d", len(parts))
			n.parallel = len(parts)
			pipe = par
		}
		if len(b.pre) > 0 {
			pipe = &vecFilter{c: c, input: pipe, conds: pre}
		}
	}
	// A hashed block's build line was noted while the chain was planned,
	// so it precedes the line of the BGP that probes it.
	c.note("vec operators:" + ch.desc.String())
	return pipe, n
}

// vecChain is a planned scan → join chain: a BGP's pipeline, or the
// build side of a hashed disconnected block. A correlated chain starts
// from its anchor row (unit) instead of a scan.
type vecChain struct {
	scan    *vecScan
	unit    *vecUnit
	joins   []*vecJoin
	semi    *vecSemi        // the trailing semi-join stage, or nil
	est     float64         // the planner's estimate of the rows out of the chain
	touched int             // index rows the chain's ranges span
	desc    strings.Builder // the stages' EXPLAIN notation
	tsteps  []*tstep        // the stages' trace steps, under WithAnalyze
}

// planVecChain plans the steps, in the order of their planner view
// ordered, as one chain; traced asks for trace steps when the query
// runs under WithAnalyze. A disconnected block (it shares no variable
// with the patterns before it) becomes one hashseg stage over the
// block's own chain when buildSegPlan takes it, and index nested loops
// otherwise. live marks the slots read above the chain (nil: all), for
// cutSemi and placeDedups.
//
// With an anchor the chain extends the anchor's row: every step is an
// index nested loop, planned with the variables the anchor certainly
// binds as bound, and a slot the anchor may leave unbound is probed
// when the row binds it and bound from the triple otherwise (see
// vecJoin.fills). Such a chain keeps every stage.
func (c *compiled) planVecChain(steps []patternStep, ordered []sparql.TriplePattern, traced bool, live liveSlots, anchor *vecAnchor) *vecChain {
	opts := c.eng.opts
	st := c.eng.src
	ch := &vecChain{est: 1}
	bound := map[string]bool{}
	boundSlots := map[int]bool{}
	var maybe map[int]bool
	if anchor != nil {
		live = nil
		for _, v := range anchor.certain {
			bound[v] = true
			boundSlots[c.slot(v)] = true
		}
		maybe = anchor.maybe
		ch.desc.WriteString(" anchor")
	}
	sortSlot := -1
	var stages []string // each stage's EXPLAIN notation, the scan's first
	// Steps from cut on bind no live slot: the stages starting there,
	// from joins[semiAt] on, form the semi-join stage.
	cut, semiAt, semiIn := semiCut(steps, live), -1, 0.0
	var fan []float64 // each join stage's estimated rows per input row

	// Patterns are rendered only under WithAnalyze.
	traced = traced && c.trace != nil
	traceStep := func(op, pattern string, est float64) *tstep {
		ts := &tstep{op: op, pattern: pattern, est: est}
		ch.tsteps = append(ch.tsteps, ts)
		return ts
	}

	for i := 0; i < len(steps); i++ {
		step, p := steps[i], ordered[i]
		if i == 0 && anchor == nil {
			want := constWant(step)
			rng := store.Range(st, want[0], want[1], want[2])
			ch.scan = &vecScan{c: c, rng: rng, conds: step.filt}
			ch.scan.configure(step)
			sortSlot = leadVarSlot(step, rng)
			ch.est = max(1, c.estimate(p, bound))
			if traced {
				ch.scan.ts = traceStep(opScan.String(), p.String(), ch.est)
			}
			stages = append(stages, fmt.Sprintf("scan[%s rows=%d]", rng.Ord, rng.Len()))
			ch.touched += rng.Len()
			addVars(bound, p)
			addStepSlots(boundSlots, step)
			continue
		}
		inSemi := i >= cut
		if inSemi && semiAt < 0 {
			semiAt, semiIn = len(ch.joins), ch.est
		}
		if disconnected(p, bound) && opts.HashJoins && anchor == nil {
			end := segmentEnd(ordered, i)
			segCard := c.blockEstimate(ordered[i:end], nil)
			if seg, ok := c.buildSegPlan(steps[i:end], bound, segCard); ok {
				build := &vecSegBuild{seg: seg, chain: c.planVecChain(seg.steps, ordered[i:end], false, nil, nil)}
				c.note("vec hashseg build:" + build.chain.desc.String())
				j := &vecJoin{c: c, kind: opHashSeg, seg: build, conds: seg.link}
				j.configure(boundSlots, nil)
				ch.est *= max(1, segCard)
				j.est = ch.est
				fan = append(fan, segCard)
				if traced {
					j.ts = traceStep(opHashSeg.String(), segDesc(c, seg), ch.est)
				}
				stages = append(stages, fmt.Sprintf("hashseg[%s]", segDesc(c, seg)))
				ch.joins = append(ch.joins, j)
				for k := i; k < end; k++ {
					addVars(bound, ordered[k])
				}
				for _, s := range seg.slots {
					boundSlots[s] = true
				}
				i = end - 1
				continue
			}
		}
		shared := sharedBoundVars(p, bound)
		est := c.estimate(p, bound)
		ps := physStep{kind: opNL}
		merge := false
		if opts.MergeJoins && len(shared) == 1 && anchor == nil {
			// A merge walks a sorted input stream, which a semi-join search
			// for one row does not have: there it probes like a nested loop.
			if ms, ok := c.mergeStep(step, shared[0], sortSlot, ch.est, !inSemi); ok {
				merge = true
				if !inSemi {
					ps = ms
				}
			}
		}
		if !merge && len(shared) == 1 && anchor == nil {
			if hs, ok := c.hashStep(step, shared[0], ch.est); ok {
				ps = hs
			}
		}
		j := &vecJoin{
			c: c, kind: ps.kind, step: step, rng: ps.rng,
			joinSlot: ps.joinSlot, keyPos: ps.keyPos, lead: ps.lead,
			conds: step.filt,
		}
		if ps.kind == opHash {
			j.hash = &vecHashBuild{}
		}
		j.configure(boundSlots, maybe)
		ch.est *= max(1, est)
		j.est = ch.est
		fan = append(fan, est)
		if traced {
			j.ts = traceStep(ps.kind.String(), p.String(), ch.est)
		}
		switch ps.kind {
		case opMerge:
			stages = append(stages, fmt.Sprintf("merge[?%s %s rows=%d]", c.names[ps.joinSlot], ps.rng.Ord, ps.rng.Len()))
		case opHash:
			stages = append(stages, fmt.Sprintf("hash[?%s build=%d]", c.names[ps.joinSlot], ps.rng.Len()))
		default:
			stages = append(stages, "nl")
		}
		ch.touched += ps.rng.Len()
		ch.joins = append(ch.joins, j)
		addVars(bound, p)
		addStepSlots(boundSlots, step)
	}
	if semiAt >= 0 {
		stages = c.cutSemi(ch, stages, semiAt, semiIn, live)
	}
	stages = c.placeDedups(ch, stages, fan, live)
	for _, s := range stages {
		ch.desc.WriteString(" " + s)
	}
	return ch
}

// link links a planned BGP pipeline's stages scan (or anchor row) →
// join → … → semi (when there is one) in place, each join's dedup stage
// in front of it, checking cancellation through cancel.
func (ch *vecChain) link(cancel *canceller) vecOp {
	joins, semi := ch.joins, ch.semi
	var pipe vecOp = ch.unit
	if ch.scan != nil {
		ch.scan.cancel = cancel
		pipe = ch.scan
	}
	later := joins
	if semi != nil {
		later = append(slices.Clip(joins), semi.steps...)
	}
	for i, j := range joins {
		if j.dedup != nil {
			j.dedup.child = pipe
			pipe = j.dedup
		}
		j.child, j.cancel, j.later = pipe, cancel, later[i+1:]
		pipe = j
	}
	if semi != nil {
		semi.child, semi.cancel = pipe, cancel
		for i, j := range semi.steps {
			j.cancel, j.later = cancel, semi.steps[i+1:]
		}
		pipe = semi
	}
	return pipe
}

// addStepSlots records the variable slots a pattern step binds.
func addStepSlots(slots map[int]bool, step patternStep) {
	for i := 0; i < 3; i++ {
		if p := step.pos[i]; p.isVar {
			slots[p.slot] = true
		}
	}
}

// sortedSlots flattens a slot set in ascending order.
func sortedSlots(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// applyVecFilters runs the step's compiled filter conjuncts over the
// batch's live rows — the fast var-var comparisons as column kernels,
// the rest per-row through the expression evaluator — then compacts the
// survivors so the batch leaves the operator dense.
func applyVecFilters(c *compiled, b *Batch, conds *rowFilter, memo *termMemo, selbuf *[]int32, rowbuf *[]store.ID) {
	for _, f := range conds.fast {
		if b.Live() == 0 {
			break
		}
		f.kernel(c, b, memo, selbuf)
	}
	for _, f := range conds.slow {
		if b.Live() == 0 {
			break
		}
		slowKernel(c, b, f, selbuf, rowbuf)
	}
	b.Compact()
}

// kernel evaluates the comparison column-at-a-time over the batch's
// live rows, narrowing the selection vector in place.
//
// sp2b:valuecmp column kernels delegate to cmpIDs (value comparison)
func (f fastCmp) kernel(c *compiled, b *Batch, memo *termMemo, selbuf *[]int32) {
	lc, rc := b.cols[f.l], b.cols[f.r]
	if b.sel == nil {
		sel := emptySel(*selbuf)
		for r := 0; r < b.n; r++ {
			if f.cmpIDs(c, memo, lc[r], rc[r]) {
				sel = append(sel, int32(r))
			}
		}
		*selbuf = sel
		b.sel = sel
		return
	}
	// In-place narrowing: writes trail reads because sel is ascending.
	sel := b.sel[:0]
	for _, r := range b.sel {
		if f.cmpIDs(c, memo, lc[r], rc[r]) {
			sel = append(sel, r)
		}
	}
	b.sel = sel
}

// slowKernel evaluates one general conjunct per live row via the
// expression evaluator; type errors reject the row, as in a FILTER.
func slowKernel(c *compiled, b *Batch, f sparql.Expr, selbuf *[]int32, rowbuf *[]store.ID) {
	narrowSel(b, selbuf, func(r int32) bool {
		*rowbuf = b.CopyRow(int(r), *rowbuf)
		v, err := algebra.EvalBool(f, rowBinding{c: c, row: *rowbuf})
		return err == nil && v
	})
}

// vecEmpty is the provably-empty BGP: a constant term absent from the
// dictionary means no triple can ever match.
type vecEmpty struct{}

func (vecEmpty) open()                 {}
func (vecEmpty) next() (*Batch, error) { return nil, nil }

// vecScan is the pipeline anchor: it decodes the first pattern's index
// range run-at-a-time into the output batch's columns via
// store.Cursor.CopyColumns, checks repeated-variable positions, and
// runs the pushed filter kernels.
type vecScan struct {
	c      *compiled
	cancel *canceller // per partition: c.cancel is not goroutine-safe
	rng    store.IndexRange
	// slotOf maps each SPO component to its destination slot (-1 = a
	// constant, or a repeated variable handled via dupOf).
	slotOf [3]int
	// dupOf marks a component holding a second occurrence of a variable:
	// the slot it must equal row-wise (-1 = none).
	dupOf   [3]int
	conds   rowFilter
	ts      *tstep
	out     *Batch
	scratch [3][]store.ID
	memo    termMemo
	selbuf  []int32
	rowbuf  []store.ID
	cur     store.Cursor
}

// configure derives the component → column plan from the pattern step.
func (v *vecScan) configure(step patternStep) {
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		v.slotOf[i], v.dupOf[i] = -1, -1
		p := step.pos[i]
		if !p.isVar {
			continue
		}
		if seen[p.slot] {
			v.dupOf[i] = p.slot
			continue
		}
		seen[p.slot] = true
		v.slotOf[i] = p.slot
	}
}

func (v *vecScan) open() {
	if v.out == nil {
		v.out = v.c.newBatch(float64(v.rng.Len()))
	}
	v.cur = v.rng.Cursor()
}

func (v *vecScan) next() (*Batch, error) {
	out := v.out
	for v.cur.Len() > 0 {
		if err := v.cancel.check(); err != nil {
			return nil, err
		}
		out.Reset()
		var cols [3][]store.ID
		for i := 0; i < 3; i++ {
			switch {
			case v.slotOf[i] >= 0:
				cols[i] = out.cols[v.slotOf[i]][:out.Cap()]
			case v.dupOf[i] >= 0:
				if v.scratch[i] == nil {
					v.scratch[i] = make([]store.ID, out.Cap())
				}
				cols[i] = v.scratch[i]
			}
		}
		out.n, _ = v.cur.CopyColumns(out.Cap(), cols[0], cols[1], cols[2])
		// Repeated-variable positions must agree row-wise. Binding is by
		// term identity, so comparing dictionary IDs is exact here (this
		// is join semantics, not FILTER `=`).
		for i := 0; i < 3; i++ {
			if v.dupOf[i] < 0 {
				continue
			}
			bcol, scol := out.cols[v.dupOf[i]], v.scratch[i]
			narrowSel(out, &v.selbuf, func(r int32) bool { return bcol[r] == scol[r] })
		}
		applyVecFilters(v.c, out, &v.conds, &v.memo, &v.selbuf, &v.rowbuf)
		if out.Len() > 0 {
			if v.ts != nil {
				v.ts.rows.Add(int64(out.Len()))
				v.ts.batches.Add(1)
			}
			return out, nil
		}
	}
	return nil, nil
}

// emptySel resets buf to length zero, allocating on first use. The
// result is never nil: a nil selection vector means "all rows selected",
// so installing a nil empty selection would silently pass every row —
// exactly backwards for a kernel that just rejected the whole batch.
func emptySel(buf []int32) []int32 {
	if buf == nil {
		return make([]int32, 0, 16)
	}
	return buf[:0]
}

// narrowSel narrows the batch's selection with pred over the live rows.
func narrowSel(b *Batch, selbuf *[]int32, pred func(r int32) bool) {
	if b.sel == nil {
		sel := emptySel(*selbuf)
		for r := 0; r < b.n; r++ {
			if pred(int32(r)) {
				sel = append(sel, int32(r))
			}
		}
		*selbuf = sel
		b.sel = sel
		return
	}
	sel := b.sel[:0]
	for _, r := range b.sel {
		if pred(r) {
			sel = append(sel, r)
		}
	}
	b.sel = sel
}

// vecJoin is one join stage of a BGP pipeline: for each input row it
// locates the pattern's matching triples — by index probe (opNL),
// galloping merge run (opMerge), or hash-table lookup (opHash) — or the
// matching rows of a hashed disconnected block (opHashSeg), and emits
// the extended rows into the output batch, then runs the stage's filter
// kernels (for opHashSeg, the block's link filters) when the batch
// fills.
type vecJoin struct {
	c        *compiled
	cancel   *canceller // per partition: c.cancel is not goroutine-safe
	kind     opKind
	child    vecOp
	step     patternStep
	rng      store.IndexRange // opMerge: co-sorted range; opHash: build range
	joinSlot int
	keyPos   int           // opHash: SPO position of the join variable
	lead     int           // opMerge: index component position of the join variable
	hash     *vecHashBuild // opHash: the table, shared by every partition
	seg      *vecSegBuild  // opHashSeg: the block, shared by every partition
	dedup    *vecDedup     // drops repeats from this stage's input, or nil
	est      float64       // planner estimate of the rows out of this stage

	prevBound []int // slots bound upstream, copied into each output row
	// writes, fills and checks index the candidate's components: SPO
	// positions of a triple, or positions in seg.seg.slots of a block
	// row.
	writes []compBind // components binding new variables
	// fills are components at slots an anchor row may leave unbound: the
	// probe is keyed on the row's binding when there is one, and the
	// candidate binds the slot when there is none.
	fills     []compBind
	checks    []compBind // repeated components, equality-checked after writes
	wantSlot  [3]int     // opNL: slot supplying the probe constraint (-1 = none)
	wantConst [3]store.ID

	conds  rowFilter
	ts     *tstep
	out    *Batch
	memo   termMemo
	selbuf []int32
	rowbuf []store.ID

	// run state
	in      *Batch
	ipos    int
	probing bool
	done    bool
	// the unread candidates of an opNL probe or an opMerge key
	cur  store.Cursor
	filt store.EncTriple // opNL
	ord  store.Order     // opNL
	// opMerge galloping cursor, persistent across input rows
	minited  bool
	mkey     store.ID
	runStart store.Cursor // at the current key's first row
	// opHash
	cands []store.EncTriple
	cpos  int
	// opHashSeg: the block rows probed for the current input row, flat
	// (len(seg.seg.slots) IDs each; cpos indexes the flat slice), and
	// this partition's probe state on the block's table
	rowCands []store.ID
	segProbe valueProbe
	// later are the stages downstream in this partition's chain, whose
	// unclaimed builds build may take; built caches that this stage's
	// own build is ready.
	later []*vecJoin
	built bool
}

// vecHashBuild is a hash stage's build side: built once per query by
// whichever partition claims it first, then read-only.
type vecHashBuild struct {
	buildOnce
	table *idTable[[]store.EncTriple]
}

// buildOnce runs a shared build side — a hash stage's table, a hashed
// block — once per query across partitions. Unlike sync.Once it lets a
// partition that finds the build taken do something useful before it
// waits (see vecJoin.build).
type buildOnce struct {
	mu      sync.Mutex
	claimed bool
	done    chan struct{} // closed when the build has finished
	err     error
}

// claim reports whether the caller takes the build; it must then run
// it. False means another caller has taken it.
func (b *buildOnce) claim() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.claimed {
		return false
	}
	b.claimed, b.done = true, make(chan struct{})
	return true
}

// errBuildAborted is what waiters see when the claimed build panicked;
// the panicking partition's worker relays the panic itself.
var errBuildAborted = errors.New("engine: shared build aborted")

// run runs f as the claimed build. done closes however f ends, so a
// panic leaves no partition waiting on the build forever.
func (b *buildOnce) run(f func() error) {
	b.err = errBuildAborted
	defer close(b.done)
	b.err = f()
}

// wait blocks until the claimed build has finished and returns its
// error.
func (b *buildOnce) wait() error {
	<-b.done
	return b.err
}

// configure splits the pattern's components into probe constraints,
// fresh-variable writes, and equality checks, given the slots bound by
// upstream stages.
//
// maybe marks the slots an anchor row may bind (nil outside a
// correlated chain): they are carried like bound slots, and a step
// reading one that no step before it binds fills it (see fills).
func (v *vecJoin) configure(boundSlots, maybe map[int]bool) {
	carried := boundSlots
	if len(maybe) > 0 {
		carried = maps.Clone(boundSlots)
		for s := range maybe {
			carried[s] = true
		}
	}
	v.prevBound = sortedSlots(carried)
	if v.kind == opHashSeg {
		// A block shares no variable with the patterns before it in the
		// planner's view, where a pinned variable is a constant, but
		// its steps still bind the pinned slot: a slot bound upstream
		// is checked, not written, exactly like bindRow's conflict
		// check.
		for k, s := range v.seg.seg.slots {
			if boundSlots[s] {
				v.checks = append(v.checks, compBind{comp: k, slot: s})
			} else {
				v.writes = append(v.writes, compBind{comp: k, slot: s})
			}
		}
		return
	}
	seen := map[int]bool{}
	keyComp := -1
	switch v.kind {
	case opMerge:
		keyComp = ordPos[v.rng.Ord][v.lead]
	case opHash:
		keyComp = v.keyPos
	}
	for i := 0; i < 3; i++ {
		v.wantSlot[i] = -1
		p := v.step.pos[i]
		v.wantConst[i] = p.id // a constant or pin; NoID at a free variable
		if !p.isVar {
			continue
		}
		switch {
		case v.kind == opNL && boundSlots[p.slot]:
			// The probe's want pins this component; every candidate
			// matches it by construction.
			v.wantSlot[i] = p.slot
		case i == keyComp && p.slot == v.joinSlot && !seen[p.slot]:
			// The merge run / hash bucket pins the join component.
			seen[p.slot] = true
		case boundSlots[p.slot] || seen[p.slot]:
			v.checks = append(v.checks, compBind{comp: i, slot: p.slot})
		case maybe[p.slot]:
			seen[p.slot] = true
			v.wantSlot[i] = p.slot
			v.fills = append(v.fills, compBind{comp: i, slot: p.slot})
		default:
			seen[p.slot] = true
			v.writes = append(v.writes, compBind{comp: i, slot: p.slot})
		}
	}
}

func (v *vecJoin) open() {
	v.child.open()
	if v.out == nil {
		v.out = v.c.newBatch(v.est)
	}
	v.in, v.ipos = nil, 0
	v.probing, v.done = false, false
	v.minited = false
	v.rowCands = nil
}

func (v *vecJoin) next() (*Batch, error) {
	if v.done {
		return nil, nil
	}
	out := v.out
	out.Reset()
	for {
		if err := v.cancel.check(); err != nil {
			return nil, err
		}
		if v.in == nil {
			b, err := v.child.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				v.done = true
				return v.flush(out), nil
			}
			v.in = b
			v.ipos = 0
			v.probing = false
		}
		if !v.probing {
			if v.ipos >= v.in.Len() {
				v.in = nil
				continue
			}
			if err := v.startProbe(); err != nil {
				return nil, err
			}
			v.probing = true
		}
		if full := v.drain(out); full {
			// Batch filled mid-probe: filter and emit; if every row was
			// filtered away, keep filling from where the probe stopped.
			if b := v.flush(out); b != nil {
				return b, nil
			}
			continue
		}
		v.probing = false
		v.ipos++
	}
}

// flush applies the stage filters to the rows accumulated in out — a
// full batch, or the last rows at input exhaustion — and returns it;
// nil means every row was rejected and the (now compacted) batch has
// room again.
func (v *vecJoin) flush(out *Batch) *Batch {
	applyVecFilters(v.c, out, &v.conds, &v.memo, &v.selbuf, &v.rowbuf)
	if out.Len() == 0 {
		return nil
	}
	if v.ts != nil {
		v.ts.rows.Add(int64(out.Len()))
		v.ts.batches.Add(1)
	}
	return out
}

// startProbe positions the stage's cursor for the current input row.
func (v *vecJoin) startProbe() error {
	switch v.kind {
	case opMerge:
		k := v.in.cols[v.joinSlot][v.ipos]
		if v.minited && k == v.mkey {
			v.cur = v.runStart // same key as the previous row: re-emit the run
			return nil
		}
		if !v.minited || k < v.mkey {
			v.cur = v.rng.Cursor()
		}
		// Left keys are non-decreasing, and the last drain left cur past
		// the previous key's rows: gallop forward from there.
		v.cur.Seek(k)
		v.minited, v.mkey = true, k
		v.runStart = v.cur
	case opHash:
		if err := v.build(); err != nil {
			return err
		}
		v.cands = v.hash.table.get(v.in.cols[v.joinSlot][v.ipos])
		v.cpos = 0
	case opHashSeg:
		if err := v.build(); err != nil {
			return err
		}
		v.probeSeg()
		v.cpos = 0
	default: // opNL
		want := v.wantConst
		for i := 0; i < 3; i++ {
			if s := v.wantSlot[i]; s >= 0 {
				want[i] = v.in.cols[s][v.ipos] // NoID at an unbound fill: a wildcard
			}
		}
		rng := store.Range(v.c.eng.src, want[0], want[1], want[2])
		v.cur, v.filt, v.ord = rng.Cursor(), rng.Filt, rng.Ord
	}
	return nil
}

// drain emits the current probe's remaining candidates into out,
// reporting true when the batch filled before the probe finished.
func (v *vecJoin) drain(out *Batch) bool {
	switch v.kind {
	case opMerge:
		for {
			run := v.cur.Run()
			i := 0
			for ; i < len(run); i++ {
				row := run[i]
				if row[v.lead] != v.mkey {
					break
				}
				if out.Full() {
					v.cur.Advance(i)
					return true
				}
				if passFilt(row, v.rng.Filt) {
					t := unpermute(v.rng.Ord, row)
					v.emit(out, t[:])
				}
			}
			v.cur.Advance(i)
			if i < len(run) || len(run) == 0 {
				return false // past the key, or at the end
			}
		}
	case opHash:
		for v.cpos < len(v.cands) {
			if out.Full() {
				return true
			}
			t := v.cands[v.cpos]
			v.cpos++
			v.emit(out, t[:])
		}
		return false
	case opHashSeg:
		w := v.seg.table.width
		for v.cpos < len(v.rowCands) {
			if out.Full() {
				return true
			}
			v.emit(out, v.rowCands[v.cpos:v.cpos+w])
			v.cpos += w
		}
		return false
	default: // opNL
		for run := v.cur.Run(); len(run) > 0; run = v.cur.Run() {
			for i, row := range run {
				if out.Full() {
					v.cur.Advance(i)
					return true
				}
				if passFilt(row, v.filt) {
					t := unpermute(v.ord, row)
					v.emit(out, t[:])
				}
			}
			v.cur.Advance(len(run))
		}
		return false
	}
}

// emit writes one extended row: upstream bindings are copied, the
// stage's fresh variables are written from the candidate (a triple's
// SPO components or a block row), and repeated components are
// equality-checked (term identity: the dictionary-ID comparison of
// join semantics, not FILTER `=`).
func (v *vecJoin) emit(out *Batch, t []store.ID) {
	n := out.n
	for _, s := range v.prevBound {
		out.cols[s][n] = v.in.cols[s][v.ipos]
	}
	for _, w := range v.writes {
		out.cols[w.slot][n] = t[w.comp]
	}
	for _, f := range v.fills {
		if out.cols[f.slot][n] == store.NoID {
			out.cols[f.slot][n] = t[f.comp]
		}
	}
	for _, ck := range v.checks {
		if out.cols[ck.slot][n] != t[ck.comp] {
			return // conflicting repeated binding: drop the row
		}
	}
	out.n = n + 1
}

// shared returns the stage's build side, nil for a stage without one.
func (v *vecJoin) shared() *buildOnce {
	switch v.kind {
	case opHash:
		return &v.hash.buildOnce
	case opHashSeg:
		return &v.seg.buildOnce
	}
	return nil
}

// build makes the stage's build side ready. The first partition to
// claim it runs it; a partition that finds it claimed first runs any
// unclaimed builds of later stages of its chain, which its rows will
// need next — so partitions build different tables at once instead of
// queueing behind one — and then waits.
func (v *vecJoin) build() error {
	if v.built {
		return nil
	}
	b := v.shared()
	if b.claim() {
		b.run(v.runBuild)
	} else {
		for _, d := range v.later {
			if db := d.shared(); db != nil && db.claim() {
				db.run(d.runBuild)
			}
		}
	}
	if err := b.wait(); err != nil {
		return err
	}
	v.built = true
	return nil
}

// runBuild builds the stage's shared side under this partition's
// canceller.
func (v *vecJoin) runBuild() error {
	if v.kind == opHashSeg {
		return v.seg.run(v.cancel, v.ts)
	}
	return v.buildTable()
}

// buildTable hashes the stage's build range on the join component. One
// pass over the range counts each key's triples, a second places them
// into one backing array, so the build allocates a handful of arrays
// rather than one slice per key. Keys are laid out in the order the
// range first meets them, which keeps the candidates of a left stream
// sorted like the range next to each other.
func (v *vecJoin) buildTable() error {
	filt, ord := v.rng.Filt, v.rng.Ord
	table := newIDTable[[]store.EncTriple](v.rng.Len())
	counts := make([]int32, len(table.keys))
	slots := make([]uint32, 0, v.rng.Len()) // the cell of each matching row
	var first []uint32                      // each key's cell, in first-row order
	cur := v.rng.Cursor()
	for run := cur.Run(); len(run) > 0; run = cur.Run() {
		run = run[:min(len(run), 1024)] // a cancellation check per 1024 rows
		if err := v.cancel.now(); err != nil {
			return err
		}
		for _, row := range run {
			if passFilt(row, filt) {
				s, fresh := table.claim(unpermute(ord, row)[v.keyPos])
				if fresh {
					first = append(first, s)
				}
				slots = append(slots, s)
				counts[s]++
			}
		}
		cur.Advance(len(run))
	}
	backing := make([]store.EncTriple, len(slots))
	off := int32(0)
	for _, s := range first {
		n := counts[s]
		table.vals[s] = backing[off : off : off+n]
		off += n
	}
	j := 0
	cur = v.rng.Cursor()
	for run := cur.Run(); len(run) > 0; run = cur.Run() {
		for _, row := range run {
			if passFilt(row, filt) {
				s := slots[j]
				table.vals[s] = append(table.vals[s], unpermute(ord, row))
				j++
			}
		}
		cur.Advance(len(run))
	}
	v.hash.table = table
	if v.ts != nil {
		v.ts.build.Store(int64(len(slots)))
	}
	return nil
}

// probeSeg looks up the block rows for the current input row: those
// whose build-slot value key matches the probe key's, or every row of a
// keyless block.
//
// sp2b:valuecmp probes the value-keyed buckets vecSegBuild builds
func (v *vecJoin) probeSeg() {
	k := store.NoID
	if s := v.seg.seg.probeSlot; s >= 0 {
		k = v.in.cols[s][v.ipos]
	}
	v.rowCands = v.segProbe.rows(v.seg.table, k)
}

// vecSegBuild is a hashed disconnected block's build side. The block is
// uncorrelated with the patterns before it, so its own scan → join
// chain runs once per query — in whichever partition probes first,
// partitions arriving meanwhile wait for it — and its rows go into a
// valueTable keyed by the build slot's value key (one bucket for a
// keyless block). The buckets may be coarser than `=`: the retained
// link filter is the semantic check. Read-only once built.
type vecSegBuild struct {
	buildOnce
	seg   *segPlan
	chain *vecChain
	// table holds block rows (values of seg.slots) in the order the
	// chain produced them within each bucket.
	table *valueTable
}

// run runs the block's chain under cancel, then buckets its rows.
func (b *vecSegBuild) run(cancel *canceller, ts *tstep) error {
	t, n, err := buildValueTable(b.chain.link(cancel), cancel, b.chain.scan.c.eng.src.TermDict(), b.seg.slots, b.seg.buildSlot)
	if err != nil {
		return err
	}
	b.table = t
	if ts != nil {
		ts.build.Store(int64(n))
	}
	return nil
}

// buildValueTable drains pipe under cancel into a valueTable of its
// rows' values at slots, bucketed by the value key of keySlot (one
// bucket when keySlot is -1), and returns it with its row count. A row
// whose key is unbound is dropped: it could never satisfy the `=` the
// key comes from (comparing an unbound value is a type error).
func buildValueTable(pipe vecOp, cancel *canceller, dict store.TermSource, slots []int, keySlot int) (*valueTable, int, error) {
	pipe.open()
	var flat, keyIDs []store.ID
	n := 0
	for {
		if err := cancel.now(); err != nil {
			return nil, 0, err
		}
		b, err := pipe.next()
		if err != nil {
			return nil, 0, err
		}
		if b == nil {
			return newValueTable(dict, flat, len(slots), n, keyIDs), n, nil
		}
		for r := 0; r < b.Len(); r++ {
			if keySlot >= 0 {
				key := b.cols[keySlot][r]
				if key == store.NoID {
					continue
				}
				keyIDs = append(keyIDs, key)
			}
			for _, s := range slots {
				flat = append(flat, b.cols[s][r])
			}
			n++
		}
	}
}

// buildVecLeftJoin covers the OPTIONAL shape the benchmark exercises
// (Q2, see probeJoinShape): a single-pattern right side with no
// condition, probed per left row; rows with no compatible extension
// pass through unextended.
func (c *compiled) buildVecLeftJoin(node *algebra.LeftJoinNode, live liveSlots) (vecOp, error) {
	// The probe reads every right-side variable the left row binds.
	left, err := c.buildVecNode(node.Left, c.liveWith(live, node.Right.Vars()))
	if err != nil {
		return nil, err
	}
	lj := &vecLeftJoin{c: c, child: left}
	p := node.Right.(*algebra.BGPNode).Patterns[0]
	for i, term := range []sparql.PatternTerm{p.S, p.P, p.O} {
		if term.IsVar {
			lj.step.pos[i] = patPos{isVar: true, slot: c.slot(term.Var)}
			lj.varComps = append(lj.varComps, compBind{comp: i, slot: c.slot(term.Var)})
			continue
		}
		id, found := c.eng.src.TermDict().Lookup(term.Term)
		if !found {
			lj.empty = true // right side can never match: all rows pass bare
			continue
		}
		lj.step.pos[i] = patPos{id: id}
	}
	n := &tnode{op: "leftjoin", detail: "vectorized", children: childTNodes(left)}
	return c.vwrap(lj, n), nil
}

// vecLeftJoin implements OPTIONAL over a single right-side pattern.
// Probe constraints come from the left row's bindings (unbound slots
// probe as wildcards — bind-join semantics), and extensions merge under
// term identity.
type vecLeftJoin struct {
	c        *compiled
	child    vecOp
	step     patternStep
	varComps []compBind
	empty    bool // right pattern has a constant missing from the dictionary
	ts       *tstep
	out      *Batch

	in      *Batch
	ipos    int
	probing bool
	matched bool
	done    bool
	cur     store.Cursor // the current probe's unread candidates
	filt    store.EncTriple
	ord     store.Order
}

func (v *vecLeftJoin) open() {
	v.child.open()
	if v.out == nil {
		v.out = v.c.newBatch(math.Inf(1)) // no estimate: full-size batches
	}
	v.in, v.ipos = nil, 0
	v.probing, v.matched, v.done = false, false, false
}

func (v *vecLeftJoin) next() (*Batch, error) {
	if v.done {
		return nil, nil
	}
	out := v.out
	out.Reset()
	for {
		if err := v.c.cancel.check(); err != nil {
			return nil, err
		}
		if v.in == nil {
			b, err := v.child.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				v.done = true
				if out.Len() == 0 {
					return nil, nil
				}
				return out, nil
			}
			v.in = b
			v.ipos = 0
			v.probing = false
		}
		if !v.probing {
			if v.ipos >= v.in.Len() {
				v.in = nil
				continue
			}
			v.startProbe()
			v.probing = true
			v.matched = false
		}
		for run := v.cur.Run(); len(run) > 0; run = v.cur.Run() {
			for i, row := range run {
				if out.Full() {
					v.cur.Advance(i)
					return out, nil
				}
				if passFilt(row, v.filt) && v.emit(out, unpermute(v.ord, row), true) {
					v.matched = true
				}
			}
			v.cur.Advance(len(run))
		}
		if !v.matched {
			if out.Full() {
				return out, nil // resume here: probing stays true, the cursor is spent
			}
			v.emit(out, store.EncTriple{}, false)
		}
		v.probing = false
		v.ipos++
	}
}

func (v *vecLeftJoin) startProbe() {
	if v.empty {
		v.cur = store.Cursor{}
		return
	}
	var want store.EncTriple
	for i := 0; i < 3; i++ {
		p := v.step.pos[i]
		if p.isVar {
			want[i] = v.in.cols[p.slot][v.ipos] // NoID when unbound: wildcard
		} else {
			want[i] = p.id
		}
	}
	rng := store.Range(v.c.eng.src, want[0], want[1], want[2])
	v.cur, v.filt, v.ord = rng.Cursor(), rng.Filt, rng.Ord
}

// emit copies the whole left row (all slots, so union inputs with
// varying bound sets stay correct) and, when extending, merges the
// candidate triple under the term-identity compatibility rule.
func (v *vecLeftJoin) emit(out *Batch, t store.EncTriple, extend bool) bool {
	n := out.n
	for s := range out.cols {
		out.cols[s][n] = v.in.cols[s][v.ipos]
	}
	if extend {
		for _, vc := range v.varComps {
			cur := out.cols[vc.slot][n]
			if cur == store.NoID {
				out.cols[vc.slot][n] = t[vc.comp]
			} else if cur != t[vc.comp] {
				return false // incompatible extension: not a match
			}
		}
	}
	out.n = n + 1
	return true
}

// buildVecHashLeftJoin covers the OPTIONAL shapes the single-pattern
// probe cannot: a condition, a multi-pattern right side, or both. The
// right side must be uncorrelated: it is evaluated once per open as its
// own vec pipeline, and is hashed by the canonical value key of an extracted
// `?l = ?r` conjunct; the key conjunct stays in the residual because
// valueKey buckets may be coarser than `=`. With anti=true, matched left
// rows are dropped instead of extended (closed-world negation, see
// antiJoinShape).
func (c *compiled) buildVecHashLeftJoin(node *algebra.LeftJoinNode, anti bool, live liveSlots) (vecOp, error) {
	leftLive := c.liveWith(live, node.Right.Vars())
	if node.Cond != nil {
		leftLive = c.liveWith(leftLive, sparql.ExprVars(node.Cond))
	}
	left, err := c.buildVecNode(node.Left, leftLive)
	if err != nil {
		return nil, err
	}
	right, err := c.buildVecNode(node.Right, nil)
	if err != nil {
		return nil, err
	}
	lj := &vecHashLeftJoin{c: c, left: left, right: right, anti: anti}
	lj.hashLeftSlot, lj.hashRightSlot = -1, -1
	for _, v := range node.Right.Vars() {
		lj.rightSlots = append(lj.rightSlots, c.slot(v))
	}
	if node.Cond != nil {
		leftVars := toSet(node.Left.Vars())
		rightVars := toSet(node.Right.Vars())
		conjs := algebra.SplitConjuncts(node.Cond)
		for _, conj := range conjs {
			if lk, rk, ok := equiJoinKey(conj, leftVars, rightVars); ok && lj.hashLeftSlot < 0 {
				lj.hashLeftSlot = c.slot(lk)
				lj.hashRightSlot = c.slot(rk)
				// No removal: the key conjunct STAYS in the residual as
				// the semantic check (see buildLeftJoin).
			}
		}
		lj.conds = c.compileFilters(conjs, nil)
	}
	detail := "vectorized hash"
	if anti {
		detail = "vectorized hash anti"
	}
	c.note(fmt.Sprintf(
		"leftjoin: %s (hash key: %v)", detail, lj.hashLeftSlot >= 0))
	n := &tnode{op: "leftjoin", detail: detail, children: childTNodes(left, right)}
	return c.vwrap(lj, n), nil
}

// vecHashLeftJoin is OPTIONAL with an uncorrelated materialized right
// side: build the right pipeline's rows once into a valueTable (keyed
// by the value key when one was extracted), then probe per left row,
// re-checking every condition conjunct on the merged row — fast slot
// comparisons via the shared cmpIDs core, the rest through the
// expression evaluator, type errors rejecting the candidate as a
// FILTER's do. In anti mode the first passing candidate drops
// the left row and unmatched rows pass through bare.
type vecHashLeftJoin struct {
	c           *compiled
	left, right vecOp
	anti        bool

	hashLeftSlot, hashRightSlot int
	rightSlots                  []int
	conds                       rowFilter
	out                         *Batch

	// table holds the right rows' rightSlots values; nil until built.
	table *valueTable
	probe valueProbe
	memo  termMemo

	in      *Batch
	ipos    int
	cands   []store.ID // the current left row's candidates, flat
	cpos    int        // offset of the next candidate in cands
	probing bool
	matched bool
	done    bool
	scratch []store.ID
}

func (v *vecHashLeftJoin) open() {
	v.left.open()
	if v.out == nil {
		v.out = v.c.newBatch(math.Inf(1)) // no estimate: full-size batches
	}
	v.table = nil
	v.in, v.ipos = nil, 0
	v.probing, v.done = false, false
}

// build drains the right pipeline once into the table.
func (v *vecHashLeftJoin) build() error {
	if v.table != nil {
		return nil
	}
	var err error
	v.table, _, err = buildValueTable(v.right, v.c.cancel, v.c.eng.src.TermDict(), v.rightSlots, v.hashRightSlot)
	return err
}

func (v *vecHashLeftJoin) next() (*Batch, error) {
	if v.done {
		return nil, nil
	}
	if err := v.build(); err != nil {
		return nil, err
	}
	out := v.out
	out.Reset()
	w := v.table.width
	for {
		if err := v.c.cancel.check(); err != nil {
			return nil, err
		}
		if v.in == nil {
			b, err := v.left.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				v.done = true
				if out.Len() == 0 {
					return nil, nil
				}
				return out, nil
			}
			v.in, v.ipos, v.probing = b, 0, false
		}
		if !v.probing {
			if v.ipos >= v.in.Len() {
				v.in = nil
				continue
			}
			// The left pipeline never writes the right-side slots, so the
			// copied row carries NoID there; each candidate only has to
			// overwrite those slots, and the bare emit resets them.
			v.scratch = v.in.CopyRow(v.ipos, v.scratch)
			key := store.NoID
			if v.hashLeftSlot >= 0 {
				key = v.scratch[v.hashLeftSlot]
			}
			v.cands = v.probe.rows(v.table, key)
			v.cpos, v.matched = 0, false
			v.probing = true
		}
		for v.cpos < len(v.cands) {
			if out.Full() {
				return out, nil // resume mid-probe: cpos holds the position
			}
			cand := v.cands[v.cpos : v.cpos+w]
			v.cpos += w
			for j, s := range v.rightSlots {
				v.scratch[s] = cand[j]
			}
			if !v.conds.pass(v.c, &v.memo, v.scratch) {
				continue
			}
			v.matched = true
			if v.anti {
				v.cands = nil // first match drops the row; stop probing
				break
			}
			out.Append(v.scratch)
		}
		if !v.matched {
			if out.Full() {
				return out, nil // resume at the bare emit: cands are spent
			}
			for _, s := range v.rightSlots {
				v.scratch[s] = store.NoID
			}
			out.Append(v.scratch)
		}
		v.probing = false
		v.ipos++
	}
}

// vecFilter applies a FILTER over a non-BGP input (filters over BGPs
// are pushed into the pipeline stages instead).
type vecFilter struct {
	c      *compiled
	input  vecOp
	conds  rowFilter
	memo   termMemo
	selbuf []int32
	rowbuf []store.ID
}

func (f *vecFilter) open() { f.input.open() }

func (f *vecFilter) next() (*Batch, error) {
	for {
		b, err := f.input.next()
		if b == nil || err != nil {
			return nil, err
		}
		applyVecFilters(f.c, b, &f.conds, &f.memo, &f.selbuf, &f.rowbuf)
		if b.Len() > 0 {
			return b, nil
		}
	}
}

// vecUnion drains the left input, then the right. The right input is
// opened only once the left is exhausted: under an ASK or a LIMIT the
// left often answers alone.
type vecUnion struct {
	left, right vecOp
	onRight     bool
}

func (u *vecUnion) open() {
	u.left.open()
	u.onRight = false
}

func (u *vecUnion) next() (*Batch, error) {
	if !u.onRight {
		b, err := u.left.next()
		if b != nil || err != nil {
			return b, err
		}
		u.onRight = true
		u.right.open()
	}
	return u.right.next()
}

// vecProject zeroes non-projected columns in place, column-at-a-time,
// so downstream DISTINCT compares only the projection.
type vecProject struct {
	input vecOp
	keep  []bool
}

func (p *vecProject) open() { p.input.open() }

func (p *vecProject) next() (*Batch, error) {
	b, err := p.input.next()
	if b == nil || err != nil {
		return nil, err
	}
	for s := range b.cols {
		if p.keep[s] {
			continue
		}
		col := b.cols[s][:b.n]
		for i := range col {
			col[i] = store.NoID
		}
	}
	return b, nil
}

// vecDistinct suppresses duplicate rows with a distinctSet, marking first occurrences in the selection vector and
// compacting in place.
type vecDistinct struct {
	c      *compiled
	input  vecOp
	set    distinctSet
	selbuf []int32
}

func (d *vecDistinct) open() {
	d.input.open()
	d.set.reset()
}

func (d *vecDistinct) next() (*Batch, error) {
	for {
		b, err := d.input.next()
		if b == nil || err != nil {
			return nil, err
		}
		if err := d.c.cancel.check(); err != nil {
			return nil, err
		}
		d.set.keepNew(b, &d.selbuf)
		if b.Len() > 0 {
			return b, nil
		}
	}
}

// vecOrder materializes and sorts its input by the compiled ORDER BY
// keys in the SPARQL order of rdf.Term.Compare (unbound first). Each
// row's key terms are resolved to rdf.SortKeys once, as the row
// arrives, so comparisons never go back to the dictionary (and equal
// IDs, identical terms, compare without looking at the terms). Ties
// break on arrival order, which makes the order total: the output is
// exactly a stable sort of the input.
//
// Under a LIMIT (keep >= 0, see buildVecBounded) only the best keep rows
// are retained. Once keep rows have arrived they become a max-heap whose
// root is the worst of them, and a later row replaces the root only if
// it sorts strictly before it: on equal keys the earlier arrival wins.
// The retained rows grow as rows arrive rather than being preallocated,
// as LIMIT may be huge. The slice above trims the offset.
type vecOrder struct {
	c     *compiled
	input vecOp
	keys  []orderKey
	keep  int // rows to retain; -1 retains every row
	out   *Batch

	// Retained row i: its slots ids[i*w:(i+1)*w] (w = len(c.names)),
	// its resolved keys sk[i*len(keys):(i+1)*len(keys)], and its arrival
	// number seq[i].
	ids  []store.ID
	sk   []ordTerm
	seq  []int
	rows []int32 // retained rows: a heap once keep are retained, then the output order
	cand []ordTerm
	pos  int
	done bool
}

func (o *vecOrder) open() {
	o.input.open()
	o.ids, o.sk, o.seq, o.rows = nil, nil, nil, nil
	o.pos = 0
	o.done = false
}

func (o *vecOrder) next() (*Batch, error) {
	if !o.done {
		if err := o.drain(); err != nil {
			return nil, err
		}
		slices.SortFunc(o.rows, o.cmp)
		o.done = true
		if o.out == nil {
			o.out = o.c.newBatch(float64(len(o.rows)))
		}
	}
	out := o.out
	out.Reset()
	w := len(o.c.names)
	for o.pos < len(o.rows) && !out.Full() {
		i := int(o.rows[o.pos])
		out.Append(o.ids[i*w : (i+1)*w])
		o.pos++
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

// drain consumes the input, retaining rows as the bound allows.
func (o *vecOrder) drain() error {
	dict := o.c.eng.src.TermDict()
	nk := len(o.keys)
	o.cand = slices.Grow(o.cand[:0], nk)[:nk]
	arrived := 0
	for {
		b, err := o.input.next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		for r := 0; r < b.Len(); r++ {
			arrived++
			if o.keep == 0 {
				continue
			}
			for k, key := range o.keys {
				id := b.cols[key.slot][r]
				o.cand[k] = ordTerm{id: id}
				if id != store.NoID {
					o.cand[k].key = dict.Term(id).SortKey()
				}
			}
			if o.keep < 0 || len(o.rows) < o.keep {
				o.retain(b, r, arrived)
				if len(o.rows) == o.keep {
					for i := o.keep/2 - 1; i >= 0; i-- {
						o.siftDown(i)
					}
				}
				continue
			}
			// Keep rows are retained: replace the worst if this row sorts
			// before it.
			top := int(o.rows[0])
			if o.cmpKeys(o.cand, o.sk[top*nk:(top+1)*nk]) >= 0 {
				continue
			}
			o.store(top, b, r, arrived)
			o.siftDown(0)
		}
		// Per batch: drain yields nothing until its input ends, so a
		// cancellation must stop it here, not at check's stride.
		if err := o.c.cancel.now(); err != nil {
			return err
		}
	}
}

// retain appends batch row r, with the candidate keys, as a new
// retained row.
func (o *vecOrder) retain(b *Batch, r, arrived int) {
	i := len(o.seq)
	o.ids = slices.Grow(o.ids, b.Width())[:len(o.ids)+b.Width()]
	o.sk = append(o.sk, o.cand...)
	o.seq = append(o.seq, 0)
	o.store(i, b, r, arrived)
	o.rows = append(o.rows, int32(i))
}

// store overwrites retained row i with batch row r and the candidate
// keys.
func (o *vecOrder) store(i int, b *Batch, r, arrived int) {
	w := b.Width()
	for s, col := range b.cols {
		o.ids[i*w+s] = col[r]
	}
	copy(o.sk[i*len(o.keys):], o.cand)
	o.seq[i] = arrived
}

// cmpKeys compares two rows' resolved keys under the ORDER BY
// directions.
func (o *vecOrder) cmpKeys(a, b []ordTerm) int {
	for k, key := range o.keys {
		if a[k].id == b[k].id {
			continue // the same term, or both unbound
		}
		if c := a[k].key.Compare(b[k].key); c != 0 {
			if key.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// ordTerm is one resolved ORDER BY key of a row: the slot's ID (NoID
// when unbound) and its term's sort key (the zero key, which sorts
// first, when unbound).
type ordTerm struct {
	id  store.ID
	key rdf.SortKey
}

// cmp is the total output order of two retained rows: keys, then
// arrival.
func (o *vecOrder) cmp(i, j int32) int {
	nk := len(o.keys)
	if c := o.cmpKeys(o.sk[int(i)*nk:int(i+1)*nk], o.sk[int(j)*nk:int(j+1)*nk]); c != 0 {
		return c
	}
	return o.seq[i] - o.seq[j]
}

// siftDown restores the max-heap property under cmp below rows[i]: the
// root is the retained row that sorts last.
func (o *vecOrder) siftDown(i int) {
	n := len(o.rows)
	for {
		worst := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < n && o.cmp(o.rows[child], o.rows[worst]) > 0 {
				worst = child
			}
		}
		if worst == i {
			return
		}
		o.rows[i], o.rows[worst] = o.rows[worst], o.rows[i]
		i = worst
	}
}

// vecSlice applies OFFSET/LIMIT batch-wise: whole batches are skipped
// while the offset lasts, the boundary batch is trimmed through the
// selection vector, and a mid-batch LIMIT truncates the dense batch.
type vecSlice struct {
	input   vecOp
	offset  int
	limit   int
	skipped int
	emitted int
	selbuf  []int32
}

func (s *vecSlice) open() {
	s.input.open()
	s.skipped = 0
	s.emitted = 0
}

func (s *vecSlice) next() (*Batch, error) {
	if s.limit >= 0 && s.emitted >= s.limit {
		return nil, nil // early exit: stop pulling the input entirely
	}
	for {
		b, err := s.input.next()
		if b == nil || err != nil {
			return nil, err
		}
		if s.skipped < s.offset {
			if remaining := s.offset - s.skipped; b.Len() <= remaining {
				s.skipped += b.Len()
				continue
			}
			drop := s.offset - s.skipped
			s.skipped = s.offset
			sel := emptySel(s.selbuf)
			for r := drop; r < b.Len(); r++ {
				sel = append(sel, int32(r))
			}
			s.selbuf = sel
			b.SetSel(sel)
			b.Compact()
		}
		if b.Len() == 0 {
			continue
		}
		if s.limit >= 0 && s.emitted+b.Len() > s.limit {
			b.Truncate(s.limit - s.emitted)
		}
		s.emitted += b.Len()
		return b, nil
	}
}
