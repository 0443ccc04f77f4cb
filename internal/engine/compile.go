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
// every variable plus the batch operator tree (vec.go).
type compiled struct {
	eng        *Engine
	slots      map[string]int
	names      []string // names[i] is the variable in slot i
	vec        vecOp
	projection []string
	projSlots  []int
	cancel     *canceller
	notes      []planNote // optimizer decisions, for Explain
	// anchor is the anchor row of the correlated subtree being built,
	// nil outside one (see vecBind).
	anchor *vecAnchor
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

// check is the per-row check: it looks only on every 1024th call.
func (c *canceller) check() error {
	c.n++
	if c.n&1023 != 0 {
		return nil
	}
	return c.now()
}

// now looks at once. Loops that step a batch at a time call it: at
// check's stride they would see a cancellation only after about 1M
// rows. It polls the channels, which takes no lock (ctx.Err does), so
// a search may call it once per row from every partition.
func (c *canceller) now() error {
	select {
	case <-c.stop: // nil outside a partition: never ready
		return fmt.Errorf("%w: query abandoned", ErrCancelled)
	default:
	}
	select {
	case <-c.ctx.Done():
		return ctxErr(c.ctx)
	default:
		return nil
	}
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
	// An ASK runs as its pattern under LIMIT 1: the first non-empty batch
	// answers it, trimmed to the one solution it proves. It reads no
	// variable of that solution.
	vplan, live := plan, liveSlots(nil)
	if q.Form == sparql.FormAsk {
		vplan = &algebra.SliceNode{Input: plan, Offset: -1, Limit: 1}
		live = c.noneLive()
	}
	op, err := c.buildVecNode(vplan, live)
	if err != nil {
		return nil, err
	}
	c.vec = op

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

// ask reports whether the query has a solution: whether the first
// batch is non-empty. close, which the caller defers, joins any
// partition workers still running.
func (c *compiled) ask() (bool, error) {
	c.vec.open()
	b, err := c.vec.next()
	return b != nil, err
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

// isUncorrelated reports whether the right side of a left join mentions
// no variable of the left side, meaning it can be evaluated once per
// open and reused for every left row.
func isUncorrelated(right algebra.Node, leftVars []string) bool {
	shared := toSet(leftVars)
	for _, v := range mentioned(right) {
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

// sortedVars lists a variable set in order.
func sortedVars(set map[string]bool) []string {
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
