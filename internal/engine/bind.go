package engine

// Correlated evaluation. A join or OPTIONAL whose right side reads a
// variable of its left side, and that no cheaper operator serves, runs
// as a bind join: for each left row the right side's batch plan is
// re-opened with that row as the anchor its BGP chains start from
// (planVecBGP). The right side thus sees the row's bindings as the
// substitution rule says, in its patterns and in its FILTERs.

import (
	"fmt"
	"math"
	"slices"

	"sp2bench/internal/algebra"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// vecAnchor is the row a correlated subtree is evaluated under: vecBind
// sets row to each left row before it re-opens its right side. certain
// lists the variables every such row binds, sorted; maybe marks the
// slots a row may bind, certain ones included.
type vecAnchor struct {
	row     []store.ID
	certain []string
	maybe   map[int]bool
}

// anchorFor returns the anchor of a right side run under left's rows.
func (c *compiled) anchorFor(left algebra.Node) *vecAnchor {
	certain := certainVars(left)
	a := &vecAnchor{maybe: map[int]bool{}}
	if c.anchor != nil {
		for _, v := range c.anchor.certain {
			certain[v] = true
		}
		for s := range c.anchor.maybe {
			a.maybe[s] = true
		}
	}
	for _, v := range left.Vars() {
		a.maybe[c.slot(v)] = true
	}
	a.certain = sortedVars(certain)
	for _, v := range a.certain {
		a.maybe[c.slot(v)] = true
	}
	return a
}

// anchorMayBind reports whether the anchor row of the subtree being
// built may bind v, a variable of the query.
func (c *compiled) anchorMayBind(v string) bool {
	return c.anchor != nil && c.anchor.maybe[c.slots[v]]
}

// vecUnit emits one row: the anchor row of a correlated chain, or the
// empty solution (every slot unbound) outside one, which is the one
// solution of an empty group. conds, the conjuncts that read none of
// the chain's variables, are checked on it first.
type vecUnit struct {
	c      *compiled
	anchor *vecAnchor // nil: the empty solution
	conds  rowFilter
	memo   termMemo
	empty  []store.ID
	out    *Batch
	done   bool
}

func (u *vecUnit) open() {
	if u.out == nil {
		u.out = NewBatch(len(u.c.names), 1)
		u.empty = make([]store.ID, len(u.c.names))
	}
	u.done = false
}

func (u *vecUnit) next() (*Batch, error) {
	if u.done {
		return nil, nil
	}
	u.done = true
	row := u.empty
	if u.anchor != nil {
		row = u.anchor.row
	}
	if !u.conds.pass(u.c, &u.memo, row) {
		return nil, nil
	}
	u.out.Reset()
	u.out.Append(row)
	return u.out, nil
}

// buildVecBind compiles a join, or an OPTIONAL with condition cond, as
// a bind join; the slots the right side reads stay live on the left.
func (c *compiled) buildVecBind(leftNode, rightNode algebra.Node, cond sparql.Expr, optional bool, live liveSlots) (vecOp, error) {
	reads := mentioned(rightNode)
	if cond != nil {
		live = c.liveWith(live, sparql.ExprVars(cond))
	}
	left, err := c.buildVecNode(leftNode, c.liveWith(live, reads))
	if err != nil {
		return nil, err
	}
	outer := c.anchor
	c.anchor = c.anchorFor(leftNode)
	b := &vecBind{c: c, left: left, anchor: c.anchor, optional: optional}
	b.right, err = c.buildVecNode(rightNode, live)
	c.anchor = outer
	if err != nil {
		return nil, err
	}
	if cond != nil {
		b.conds = c.compileFilters(algebra.SplitConjuncts(cond), nil)
	}
	op := "join"
	if optional {
		op = "leftjoin"
	}
	c.note(fmt.Sprintf("%s: vectorized bind (right side re-opened per left row)", op))
	return c.vwrap(b, &tnode{op: op, detail: "vectorized bind", children: childTNodes(left, b.right)}), nil
}

// vecBind is the correlated (bind) join: for each left row it re-opens
// the right side with that row as its anchor and emits the right side's
// rows, which extend the anchor row. As an OPTIONAL it emits the right
// rows that pass the condition, and the left row alone when none does.
type vecBind struct {
	c           *compiled
	left, right vecOp
	anchor      *vecAnchor
	optional    bool
	conds       rowFilter // the OPTIONAL's condition, on the extended row
	memo        termMemo
	out         *Batch
	row         []store.ID

	in      *Batch // the left batch; row ipos is the anchor
	ipos    int
	rb      *Batch // the right batch being emitted, from row rpos on
	rpos    int
	probing bool // the right side is open for left row ipos
	rdone   bool // ... and exhausted
	matched bool
	done    bool
}

func (v *vecBind) open() {
	v.left.open()
	if v.out == nil {
		v.out = v.c.newBatch(math.Inf(1)) // no estimate: full-size batches
	}
	v.in, v.rb = nil, nil
	v.probing, v.done = false, false
}

func (v *vecBind) next() (*Batch, error) {
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
			// A right side re-opened per row may yield nothing for many
			// rows: look for a cancellation at every one.
			if err := v.c.cancel.now(); err != nil {
				return nil, err
			}
			v.anchor.row = v.in.CopyRow(v.ipos, v.anchor.row)
			v.right.open()
			v.rb, v.probing, v.rdone, v.matched = nil, true, false, false
		}
		for !v.rdone {
			if v.rb == nil || v.rpos >= v.rb.Len() {
				b, err := v.right.next()
				if err != nil {
					return nil, err
				}
				v.rb, v.rpos, v.rdone = b, 0, b == nil
				continue
			}
			if out.Full() {
				return out, nil // resume mid right batch
			}
			v.row = v.rb.CopyRow(v.rpos, v.row)
			v.rpos++
			if v.conds.pass(v.c, &v.memo, v.row) {
				out.Append(v.row)
				v.matched = true
			}
		}
		if v.optional && !v.matched {
			if out.Full() {
				return out, nil // resume at the bare emit: the right side is spent
			}
			out.Append(v.anchor.row)
		}
		v.probing = false
		v.ipos++
	}
}

// buildVecAnti compiles the closed-world negation over a correlated
// right side (Q7's, see antiJoinShape) as an existence search per left
// row: a vecSemi whose one group holds when no extension of the right
// side passes the OPTIONAL's condition. It reports false, building
// nothing, when the right side is not a shape the search covers (see
// planSearch).
func (c *compiled) buildVecAnti(lj *algebra.LeftJoinNode, live liveSlots) (vecOp, bool, error) {
	// The search reads the left row's certain bindings, never a slot
	// the row may leave unbound.
	a := c.anchorFor(lj.Left)
	bound := toSet(a.certain)
	reads := mentioned(lj.Right)
	if slices.ContainsFunc(reads, func(v string) bool { return a.maybe[c.slots[v]] && !bound[v] }) {
		return nil, false, nil
	}
	right := lj.Right
	if lj.Cond != nil {
		right = &algebra.FilterNode{Input: right, Cond: lj.Cond}
		reads = append(reads, sparql.ExprVars(lj.Cond)...)
	}
	s := &vecSemi{c: c, cancel: c.cancel}
	g, ok := s.planSearch(right, nil, bound)
	if !ok {
		return nil, false, nil
	}
	g.anti = true
	left, err := c.buildVecNode(lj.Left, c.liveWith(live, reads))
	if err != nil {
		return nil, true, err
	}
	pre := map[int]bool{}
	for _, v := range a.certain {
		pre[c.slots[v]] = true
	}
	desc := s.finish([]*semiGroup{g}, pre)
	// No estimate of the rows kept: minimum-size batches, as a handful
	// of rows is the typical answer (57 of Q7's 1,068 at 250k).
	s.child, s.est = left, 1
	c.note("leftjoin: vectorized correlated anti " + desc)
	n := &tnode{op: "leftjoin", detail: "vectorized correlated anti", children: childTNodes(left)}
	if c.trace != nil {
		s.ts = &tstep{op: "anti", pattern: desc}
		n.steps = append(n.steps, s.ts)
		for _, j := range s.steps {
			n.steps = append(n.steps, j.ts)
		}
	}
	return c.vwrap(s, n), true, nil
}
