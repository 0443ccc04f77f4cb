package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sp2bench/internal/algebra"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// compiled is a query compiled against one engine: a slot assignment for
// every variable plus the physical iterator tree.
type compiled struct {
	eng   *Engine
	slots map[string]int
	names []string // names[i] is the variable in slot i
	// Exactly one executor is planned: vec is the batch-at-a-time
	// pipeline when the vectorized path covers the query (see vec.go),
	// root the tuple iterator tree otherwise.
	root       subplan
	vec        vecOp
	projection []string
	projSlots  []int
	cancel     *canceller
	notes      []planNote // optimizer decisions, for Explain
	// joins holds the blocks of each explicit join of groups vecDecline
	// flattened, for buildVecNode.
	joins map[*algebra.JoinNode][]vecBlock
	// trace is the EXPLAIN ANALYZE collector; nil unless the query runs
	// under WithAnalyze (see trace.go).
	trace *traceCollector
	// cleanups release resources held by operators that outlive a single
	// next() call — partitioned BGP workers (vecParallel) register their
	// shutdown here.
	// The evaluation entry points run them when the query ends, whether
	// it ran to exhaustion or stopped early (ASK, LIMIT).
	cleanups []func()
}

func (c *compiled) close() {
	for _, f := range c.cleanups {
		f()
	}
	if c.trace != nil {
		c.trace.deliver()
	}
}

// canceller amortizes context checks over many iterator steps. A non-nil
// stop channel additionally cancels when closed — parallel BGP workers
// use it so an abandoned query stops them even under a background
// context.
type canceller struct {
	ctx  context.Context
	stop <-chan struct{}
	n    uint32
}

func (c *canceller) check() error {
	c.n++
	if c.n&1023 != 0 {
		return nil
	}
	if c.stop != nil {
		select {
		case <-c.stop:
			return fmt.Errorf("%w: query abandoned", ErrCancelled)
		default:
		}
	}
	return ctxErr(c.ctx)
}

// subplan is a correlated Volcano iterator: open re-binds it under a
// parent row (substitution semantics), next yields extended rows. Rows
// returned by next are owned by the iterator and valid until the following
// next call; consumers that retain rows must copy them.
type subplan interface {
	open(parent []store.ID)
	next() ([]store.ID, bool, error)
}

func (e *Engine) compile(ctx context.Context, q *sparql.Query) (*compiled, error) {
	plan := algebra.Translate(q)
	c := &compiled{
		eng:    e,
		slots:  map[string]int{},
		cancel: &canceller{ctx: ctx},
	}
	if h := traceHandleFrom(ctx); h != nil {
		c.trace = &traceCollector{handle: h}
	}
	collectPlanVars(plan, c)
	// The batch path serves SELECT and ASK; aggregates consume the
	// core pattern through their own grouping loop. Construct/Describe
	// reuse Query's SELECT core, so they inherit the batch path
	// transparently. An ASK runs as its pattern under LIMIT 1: the first
	// non-empty batch answers it, trimmed to the one solution it proves.
	// It reads no variable of that solution.
	if !q.IsAggregate() && (q.Form == sparql.FormSelect || q.Form == sparql.FormAsk) {
		vplan, live := plan, liveSlots(nil)
		if q.Form == sparql.FormAsk {
			vplan = &algebra.SliceNode{Input: plan, Offset: -1, Limit: 1}
			live = c.noneLive()
		}
		if err := c.compileVec(vplan, live); err != nil {
			return nil, err
		}
	}
	if c.vec == nil {
		root, err := c.build(plan, nil)
		if err != nil {
			return nil, err
		}
		c.root = root
	}

	if q.Form == sparql.FormSelect {
		cols := q.Vars
		if len(cols) == 0 {
			cols = plan.Vars()
		}
		c.projection = cols
		c.projSlots = make([]int, len(cols))
		for i, v := range cols {
			if s, ok := c.slots[v]; ok {
				c.projSlots[i] = s
			} else {
				c.projSlots[i] = -1 // projected but never bound anywhere
			}
		}
	}
	return c, nil
}

func (c *compiled) emptyRow() []store.ID { return make([]store.ID, len(c.names)) }

// ask reports whether the query has a solution, stopping at the first:
// the first non-empty batch on the batch path, the first row on the
// tuple path. close, which the caller defers, joins any partition
// workers still running.
func (c *compiled) ask() (bool, error) {
	if c.vec != nil {
		c.vec.open()
		b, err := c.vec.next()
		return b != nil, err
	}
	c.root.open(c.emptyRow())
	_, ok, err := c.root.next()
	return ok, err
}

func (c *compiled) slot(name string) int {
	if s, ok := c.slots[name]; ok {
		return s
	}
	s := len(c.names)
	c.slots[name] = s
	c.names = append(c.names, name)
	return s
}

func (c *compiled) explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s slots=%d\n", c.eng.opts.Name, len(c.names))
	for _, n := range c.notes {
		b.WriteString(n.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// planNote is one line of Explain. A reordered BGP's pattern order is
// rendered only when Explain asks: most compiles never print it.
type planNote struct {
	text  string
	order []sparql.TriplePattern
}

func (n planNote) String() string {
	if n.order != nil {
		return "bgp reordered: " + fmtOrder(n.order)
	}
	return n.text
}

// note records one line of Explain.
func (c *compiled) note(text string) { c.notes = append(c.notes, planNote{text: text}) }

// collectPlanVars assigns slots to every variable reachable from the plan,
// in a deterministic order.
func collectPlanVars(n algebra.Node, c *compiled) {
	switch node := n.(type) {
	case *algebra.BGPNode:
		for _, p := range node.Patterns {
			for _, v := range p.Vars() {
				c.slot(v)
			}
		}
	case *algebra.JoinNode:
		collectPlanVars(node.Left, c)
		collectPlanVars(node.Right, c)
	case *algebra.LeftJoinNode:
		collectPlanVars(node.Left, c)
		collectPlanVars(node.Right, c)
		if node.Cond != nil {
			for _, v := range sparql.ExprVars(node.Cond) {
				c.slot(v)
			}
		}
	case *algebra.UnionNode:
		collectPlanVars(node.Left, c)
		collectPlanVars(node.Right, c)
	case *algebra.FilterNode:
		collectPlanVars(node.Input, c)
		for _, v := range sparql.ExprVars(node.Cond) {
			c.slot(v)
		}
	case *algebra.ProjectNode:
		collectPlanVars(node.Input, c)
		for _, v := range node.Columns {
			c.slot(v)
		}
	case *algebra.DistinctNode:
		collectPlanVars(node.Input, c)
	case *algebra.OrderNode:
		collectPlanVars(node.Input, c)
		for _, o := range node.Conds {
			c.slot(o.Var)
		}
	case *algebra.SliceNode:
		collectPlanVars(node.Input, c)
	}
}

// build compiles a plan node into a subplan, wrapping it in a trace
// recorder when the query runs under WithAnalyze. outer lists the
// variables guaranteed bound by the surrounding context (used by the
// optimizer).
func (c *compiled) build(n algebra.Node, outer []string) (subplan, error) {
	sp, err := c.buildNode(n, outer)
	if err != nil || c.trace == nil {
		return sp, err
	}
	return c.trace.wrap(sp), nil
}

func (c *compiled) buildNode(n algebra.Node, outer []string) (subplan, error) {
	switch node := n.(type) {
	case *algebra.BGPNode:
		return c.buildBGP(node.Patterns, nil, outer)
	case *algebra.JoinNode:
		left, err := c.build(node.Left, outer)
		if err != nil {
			return nil, err
		}
		right, err := c.build(node.Right, union(outer, node.Left.Vars()))
		if err != nil {
			return nil, err
		}
		return &joinIter{left: left, right: right}, nil
	case *algebra.LeftJoinNode:
		return c.buildLeftJoin(node, outer)
	case *algebra.UnionNode:
		left, err := c.build(node.Left, outer)
		if err != nil {
			return nil, err
		}
		right, err := c.build(node.Right, outer)
		if err != nil {
			return nil, err
		}
		return &unionIter{left: left, right: right}, nil
	case *algebra.FilterNode:
		// Filter over a BGP: the filter-pushing entry point.
		if bgp, ok := node.Input.(*algebra.BGPNode); ok && c.eng.opts.UseIndexes {
			return c.buildBGP(bgp.Patterns, algebra.SplitConjuncts(node.Cond), outer)
		}
		input, err := c.build(node.Input, outer)
		if err != nil {
			return nil, err
		}
		return &filterIter{c: c, input: input, cond: node.Cond}, nil
	case *algebra.ProjectNode:
		input, err := c.build(node.Input, outer)
		if err != nil {
			return nil, err
		}
		keep := make([]bool, len(c.names))
		for _, v := range node.Columns {
			if s, ok := c.slots[v]; ok {
				keep[s] = true
			}
		}
		return &projectIter{input: input, keep: keep}, nil
	case *algebra.DistinctNode:
		input, err := c.build(node.Input, outer)
		if err != nil {
			return nil, err
		}
		return &distinctIter{c: c, input: input, set: newDistinctSet(c.distinctSlots(node.Input))}, nil
	case *algebra.OrderNode:
		input, err := c.build(node.Input, outer)
		if err != nil {
			return nil, err
		}
		conds := make([]orderKey, len(node.Conds))
		for i, oc := range node.Conds {
			slot := -1
			if s, ok := c.slots[oc.Var]; ok {
				slot = s
			}
			conds[i] = orderKey{slot: slot, desc: oc.Desc}
		}
		return &orderIter{c: c, input: input, keys: conds}, nil
	case *algebra.SliceNode:
		input, err := c.build(node.Input, outer)
		if err != nil {
			return nil, err
		}
		return &sliceIter{input: input, offset: node.Offset, limit: node.Limit}, nil
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

func (c *compiled) buildLeftJoin(node *algebra.LeftJoinNode, outer []string) (subplan, error) {
	left, err := c.build(node.Left, outer)
	if err != nil {
		return nil, err
	}
	rightOuter := union(outer, node.Left.Vars())
	right, err := c.build(node.Right, rightOuter)
	if err != nil {
		return nil, err
	}
	lj := &leftJoinIter{c: c, left: left, right: right, cond: node.Cond}
	lj.hashLeftSlot, lj.hashRightSlot = -1, -1

	if c.eng.opts.UseIndexes && isUncorrelated(node.Right, node.Left.Vars(), outer) {
		lj.materializeRight = true
		// Detect hash keys: top-level cond conjuncts `?l = ?r` with one
		// side bound only on the left and the other only on the right.
		leftVars := toSet(union(outer, node.Left.Vars()))
		rightVars := toSet(node.Right.Vars())
		if node.Cond != nil {
			var rest []sparql.Expr
			for _, conj := range algebra.SplitConjuncts(node.Cond) {
				if lk, rk, ok := equiJoinKey(conj, leftVars, rightVars); ok && lj.hashLeftSlot < 0 {
					lj.hashLeftSlot = c.slot(lk)
					lj.hashRightSlot = c.slot(rk)
					// No `continue`: the key conjunct STAYS in the
					// residual. The hash buckets by canonical value
					// key (valueKey), which may be coarser than `=` —
					// the retained conjunct is the semantic check, so
					// over-inclusion costs a probe, never a wrong row.
				}
				rest = append(rest, conj)
			}
			lj.residual = rest
		}
		c.note(fmt.Sprintf(
			"leftjoin: materialized uncorrelated right side (hash key: %v)", lj.hashLeftSlot >= 0))
	}
	return lj, nil
}

// isUncorrelated reports whether the right side of a left join shares no
// variables with the left side or the outer context, meaning it can be
// evaluated once and reused for every left row.
func isUncorrelated(right algebra.Node, leftVars, outer []string) bool {
	shared := toSet(union(leftVars, outer))
	for _, v := range right.Vars() {
		if shared[v] {
			return false
		}
	}
	return true
}

// equiJoinKey recognizes `?a = ?b` conjuncts usable as hash-join keys
// across a left join.
func equiJoinKey(e sparql.Expr, leftVars, rightVars map[string]bool) (string, string, bool) {
	bin, ok := e.(*sparql.Binary)
	if !ok || bin.Op != sparql.OpEq {
		return "", "", false
	}
	lv, ok1 := bin.Left.(*sparql.VarExpr)
	rv, ok2 := bin.Right.(*sparql.VarExpr)
	if !ok1 || !ok2 {
		return "", "", false
	}
	switch {
	case leftVars[lv.Name] && !rightVars[lv.Name] && rightVars[rv.Name] && !leftVars[rv.Name]:
		return lv.Name, rv.Name, true
	case leftVars[rv.Name] && !rightVars[rv.Name] && rightVars[lv.Name] && !leftVars[lv.Name]:
		return rv.Name, lv.Name, true
	default:
		return "", "", false
	}
}

func union(a, b []string) []string {
	set := map[string]bool{}
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		set[v] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func toSet(vs []string) map[string]bool {
	m := make(map[string]bool, len(vs))
	for _, v := range vs {
		m[v] = true
	}
	return m
}

// rowBinding adapts a slot row to the expression evaluator's Binding.
type rowBinding struct {
	c   *compiled
	row []store.ID
}

func (rb rowBinding) Value(name string) (rdf.Term, bool) {
	s, ok := rb.c.slots[name]
	if !ok {
		return rdf.Term{}, false
	}
	id := rb.row[s]
	if id == store.NoID {
		return rdf.Term{}, false
	}
	return rb.c.eng.src.TermDict().Term(id), true
}
