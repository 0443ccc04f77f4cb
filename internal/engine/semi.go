package engine

// Existential semi-joins. Under a DISTINCT over a projection, and under
// an ASK, the operators above a BGP read only some of its variables:
// the projected ones, plus whatever an ORDER BY, a FILTER or an
// OPTIONAL between them and the BGP reads. The others are dead. A
// trailing run of join stages that binds only dead variables cannot
// change a row's live values, only how many copies of it flow up, and
// the DISTINCT (or the ASK) throws the copies away. cutSemi runs such a
// run as one vecSemi stage: a filter that keeps each input row once if
// the trailing stages have at least one match for it, and stops
// searching at the first match. Q5a and Q5b ask, per person, whether an
// article and an inproceedings exist; the semi stage answers that with
// a probe or two per person instead of enumerating every witness pair.
//
// The kept rows are the input rows that had a match, in input order,
// so the first row carrying each live value combination arrives in the
// same order as before: DISTINCT, ORDER BY, LIMIT and OFFSET above see
// the same answer, row for row.

import (
	"maps"
	"slices"
	"strings"

	"sp2bench/internal/algebra"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// liveSlots marks the variable slots that some operator above a BGP
// reads. nil means every slot is live: the consumer counts rows, so the
// BGP must produce every solution. buildVecNode passes it down the
// plan; only a DISTINCT over a projection and an ASK restrict it.
type liveSlots []bool

// noneLive is the live set of a consumer that reads no variable.
func (c *compiled) noneLive() liveSlots { return make(liveSlots, len(c.names)) }

// liveWith returns l with the slots of vars marked; all-live stays
// all-live.
func (c *compiled) liveWith(l liveSlots, vars []string) liveSlots {
	if l == nil {
		return nil
	}
	out := make(liveSlots, max(len(l), len(c.names)))
	copy(out, l)
	for _, v := range vars {
		if s, ok := c.slots[v]; ok {
			out[s] = true
		}
	}
	return out
}

func (l liveSlots) has(s int) bool { return l == nil || (s < len(l) && l[s]) }

// semiCut returns the first step of the longest run of trailing steps
// that binds no live slot, or len(steps) when there is none or every
// slot is live. The anchor scan, step 0, always stays in front of it.
func semiCut(steps []patternStep, live liveSlots) int {
	if live == nil {
		return len(steps)
	}
	binder := map[int]int{} // slot → the first step binding it
	for i, st := range steps {
		for _, p := range st.pos {
			if _, ok := binder[p.slot]; p.isVar && !ok {
				binder[p.slot] = i
			}
		}
	}
	cut := len(steps)
	for cut > 1 && !slices.ContainsFunc(steps[cut-1].pos[:], func(p patPos) bool {
		return p.isVar && binder[p.slot] == cut-1 && live.has(p.slot)
	}) {
		cut--
	}
	return cut
}

// cutSemi replaces ch's join stages from joins[at] on, which bind no
// live slot, with one semi-join stage, and returns the chain's stage
// notation with theirs nested as semi[…], in search order. Every stage
// and estimate in front of the cut stays as planned. The semi stage's
// estimate is its input's, in, or the full chain's when that is
// smaller. With no slot live (an ASK), the consumer reads only whether
// a row exists: the stage then emits small batches, so that the first
// kept row leaves after a few searches.
func (c *compiled) cutSemi(ch *vecChain, stages []string, at int, in float64, live liveSlots) []string {
	s := &vecSemi{c: c}
	order := s.plan(ch.joins[at:])
	inner := make([]string, len(order))
	for i, x := range order {
		inner[i] = stages[1+at+x]
	}
	ch.joins, ch.semi = ch.joins[:at], s
	ch.est = min(in, ch.est)
	s.est = ch.est
	if !slices.Contains(live, true) {
		s.est = 1
	}
	if ch.tsteps != nil {
		s.ts = &tstep{op: "semi", pattern: "[" + strings.Join(inner, " ") + "]", est: ch.est}
		tsteps := append(ch.tsteps[:1+at:1+at], s.ts)
		for _, j := range s.steps {
			tsteps = append(tsteps, j.ts)
		}
		ch.tsteps = tsteps
	}
	return append(stages[:1+at:1+at], "semi["+strings.Join(inner, " ")+"]")
}

// vecSemi is the semi-join stage: a filter over its input that keeps a
// row when each of its groups holds for it (see semiGroup). Each stage
// keeps the access method the planner chose: an index probe (nl), the
// shared hash table (hash), or the hashed block's value-keyed bucket
// (hashseg), its filter conjuncts checked on each candidate. The
// verdict is memoized per distinct value of the slots the groups read
// from the row, one memo per partition. cutSemi groups a chain's
// trailing stages: stages form one group when one reads a slot another
// binds, and one failing group settles the row. buildVecAnti plans the
// closed-world negation over a correlated right side as one anti group
// over any input, which may nest anti groups (Q7's: a cited document is
// dropped when some citing document is itself cited by none).
type vecSemi struct {
	c      *compiled
	cancel *canceller // per partition: c.cancel is not goroutine-safe
	child  vecOp
	groups []*semiGroup
	steps  []*vecJoin // every group's stages, in search order
	keys   []int      // the input slots the groups read
	est    float64    // the planner's estimate of the rows kept
	ts     *tstep

	memo slotMap[bool] // each key's verdict, while it pays (see memoTrial)
	// lookups and memoHits count this open's memo consultations.
	lookups, memoHits int
	fmemo             termMemo   // the groups' pre conjuncts' comparison memo
	row               []store.ID // the search's bindings: the keys, then each stage's writes
	out               *Batch
	in                *Batch // the input batch being searched, from row ipos on
	ipos              int
	done              bool
}

// semiGroup is one search of a semi-join stage for a match extending
// the row: its join stages in search order, the conjuncts on the slots
// bound before it (checked first), and the groups that must hold for a
// full extension to count. It holds when a match counts, or, for an
// anti group, when none does.
type semiGroup struct {
	steps []*vecJoin
	pre   rowFilter
	empty bool // a constant is missing from the dictionary: nothing matches
	anti  bool // the group holds when no extension counts
	inner []*semiGroup
}

// plan groups the suffix stages, installs the groups (finish), keyed on
// the slots bound in front of the suffix that some stage reads, and
// returns the search order as indexes into suffix.
func (s *vecSemi) plan(suffix []*vecJoin) []int {
	group := make([]int, len(suffix))
	writer := map[int]int{} // slot → the suffix stage binding it
	for i, j := range suffix {
		group[i] = i
		for _, sl := range s.c.stageReads(j) {
			if w, ok := writer[sl]; ok {
				if g := group[w]; g != group[i] {
					for x := range group[:i] {
						if group[x] == g {
							group[x] = group[i]
						}
					}
				}
			}
		}
		for _, w := range j.writes {
			writer[w.slot] = i
		}
	}
	var groups [][]int
	done := map[int]bool{}
	for i := range suffix {
		if done[group[i]] {
			continue
		}
		done[group[i]] = true
		var g []int
		for x := i; x < len(suffix); x++ {
			if group[x] == group[i] {
				g = append(g, x)
			}
		}
		groups = append(groups, g)
	}
	// A search costs a lookup per stage at least: the shorter group is
	// the cheaper check, and one failing group settles the row.
	slices.SortStableFunc(groups, func(a, b []int) int { return len(a) - len(b) })
	var order []int
	var planned []*semiGroup
	for _, g := range groups {
		sg := &semiGroup{}
		for _, x := range g {
			order = append(order, x)
			sg.steps = append(sg.steps, suffix[x])
		}
		planned = append(planned, sg)
	}
	pre := map[int]bool{}
	for _, sl := range suffix[0].prevBound {
		pre[sl] = true
	}
	s.finish(planned, pre)
	return order
}

// planSearch plans the search for the solutions of n that pass conds,
// extending rows that bind bound: a BGP, a FILTER, or a left join whose
// right side certainly binds the `!bound` variables among conds (an
// anti group on each match of its left side). It reports false for any
// other shape, and for a conjunct reading a variable it may leave
// unbound.
func (s *vecSemi) planSearch(n algebra.Node, conds []sparql.Expr, bound map[string]bool) (*semiGroup, bool) {
	c := s.c
	switch node := n.(type) {
	case *algebra.FilterNode:
		return s.planSearch(node.Input, append(slices.Clip(conds), algebra.SplitConjuncts(node.Cond)...), bound)
	case *algebra.BGPNode:
		vars := toSet(node.Vars())
		for _, conj := range conds {
			for _, v := range sparql.ExprVars(conj) {
				if !vars[v] && !bound[v] {
					return nil, false
				}
			}
		}
		outer := sortedVars(bound)
		b, ordered := c.prepareBGP(node.Patterns, conds, outer)
		g := &semiGroup{empty: b.empty, pre: c.compileFilters(b.pre, nil)}
		if !b.empty && len(b.steps) > 0 {
			g.steps = c.planVecChain(b.steps, ordered, true, nil, &vecAnchor{certain: outer}).joins
		}
		return g, true
	case *algebra.LeftJoinNode:
		right, leftVars := certainVars(node.Right), toSet(node.Left.Vars())
		var neg, rest []sparql.Expr
		for _, conj := range conds {
			if v, ok := notBound(conj); ok && right[v] && !leftVars[v] && !bound[v] {
				neg = append(neg, conj)
			} else {
				rest = append(rest, conj)
			}
		}
		if len(neg) == 0 {
			return nil, false
		}
		g, ok := s.planSearch(node.Left, rest, bound)
		if !ok {
			return nil, false
		}
		// The inner search extends the left side's matches, which bind
		// its certain variables and leave the rest unbound.
		inner := maps.Clone(bound)
		for v := range certainVars(node.Left) {
			inner[v] = true
		}
		if slices.ContainsFunc(mentioned(node.Right), func(v string) bool { return leftVars[v] && !inner[v] }) {
			return nil, false
		}
		var rconds []sparql.Expr
		if node.Cond != nil {
			rconds = algebra.SplitConjuncts(node.Cond)
		}
		in, ok := s.planSearch(node.Right, rconds, inner)
		if !ok {
			return nil, false
		}
		in.anti = true
		g.inner = append(g.inner, in)
		return g, true
	}
	return nil, false
}

// finish installs planned groups: it collects their stages in search
// order, keys the memo on the slots of pre they read, and returns the
// groups' notation, semi[…] or anti[…] with inner groups nested.
func (s *vecSemi) finish(groups []*semiGroup, pre map[int]bool) string {
	s.groups = groups
	key := map[int]bool{}
	var desc func(g *semiGroup) string
	desc = func(g *semiGroup) string {
		var parts []string
		reads := s.c.filterReads(g.pre)
		name := "semi"
		if g.anti {
			name = "anti"
		}
		for _, j := range g.steps {
			s.steps = append(s.steps, j)
			j.cancel = s.cancel
			reads = append(reads, s.c.stageReads(j)...)
			parts = append(parts, j.kind.String())
			if j.ts != nil {
				j.ts.op, j.ts.est = name+":"+j.kind.String(), 0
			}
		}
		for _, sl := range reads {
			if pre[sl] {
				key[sl] = true
			}
		}
		for _, in := range g.inner {
			parts = append(parts, desc(in))
		}
		return name + "[" + strings.Join(parts, " ") + "]"
	}
	var out []string
	for _, g := range groups {
		out = append(out, desc(g))
	}
	s.keys = sortedSlots(key)
	return strings.Join(out, " ")
}

// stageReads lists the slots a join stage reads from the rows it
// extends: probe constraints, its hash key, equality checks, and the
// variables of its filter conjuncts, minus the slots it binds itself.
func (c *compiled) stageReads(j *vecJoin) []int {
	var reads []int
	switch j.kind {
	case opNL:
		for _, s := range j.wantSlot {
			if s >= 0 {
				reads = append(reads, s)
			}
		}
	case opMerge, opHash:
		reads = append(reads, j.joinSlot)
	case opHashSeg:
		if s := j.seg.seg.probeSlot; s >= 0 {
			reads = append(reads, s)
		}
	}
	for _, ck := range j.checks {
		reads = append(reads, ck.slot)
	}
	reads = append(reads, c.filterReads(j.conds)...)
	return slices.DeleteFunc(reads, func(s int) bool {
		return slices.ContainsFunc(j.writes, func(w compBind) bool { return w.slot == s })
	})
}

// filterReads lists the slots compiled conjuncts read.
func (c *compiled) filterReads(f rowFilter) []int {
	var reads []int
	for _, fc := range f.fast {
		reads = append(reads, fc.l, fc.r)
	}
	for _, e := range f.slow {
		for _, v := range sparql.ExprVars(e) {
			if s, ok := c.slots[v]; ok {
				reads = append(reads, s)
			}
		}
	}
	return reads
}

// clone returns a copy of a planned, never opened stage for one
// partition: its own stages' cursors and memos, the same shared builds.
// Its groups are those cutSemi plans, which nest none.
func (s *vecSemi) clone() *vecSemi {
	if s == nil {
		return nil
	}
	cp := *s
	cp.steps, cp.groups = nil, nil
	for _, g := range s.groups {
		cg := *g
		cg.steps = nil
		for _, j := range g.steps {
			jj := *j
			cg.steps = append(cg.steps, &jj)
			cp.steps = append(cp.steps, &jj)
		}
		cp.groups = append(cp.groups, &cg)
	}
	return &cp
}

func (s *vecSemi) open() {
	s.child.open()
	if s.out == nil {
		s.out = s.c.newBatch(s.est)
	}
	s.in, s.ipos, s.done = nil, 0, false
	s.memo.slots = s.keys
	s.memo.reset()
	s.lookups, s.memoHits = 0, 0
	if s.row == nil {
		s.row = make([]store.ID, len(s.c.names))
	}
}

// memoTrial is how many rows a semi-join stage consults its memo for
// before it judges it: a memo answering fewer than one in eight is
// dropped for the rest of the open. Keys that never repeat (Q5a's
// persons, Q7's outer documents) would pay a map insert per search.
const memoTrial = 1024

// next emits the kept input rows, in input order, a full batch at a
// time; an input batch it stops in is searched on from there on the
// following call.
func (s *vecSemi) next() (*Batch, error) {
	out := s.out
	out.Reset()
	var searched, hits int64
	for !s.done && !out.Full() {
		if s.in == nil || s.ipos >= s.in.Len() {
			b, err := s.child.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				s.done = true
				break
			}
			s.in, s.ipos = b, 0
		}
		if err := s.cancel.check(); err != nil {
			return nil, err
		}
		b, r := s.in, s.ipos
		s.ipos++
		var ok, known bool
		memo := s.lookups < memoTrial || 8*s.memoHits >= s.lookups
		if memo {
			s.lookups++
			s.memo.load(b.cols, r)
			if ok, known = s.memo.get(); known {
				s.memoHits++
				hits++
			}
		}
		if !known {
			searched++
			var err error
			if ok, err = s.holds(b, r); err != nil {
				return nil, err
			}
			if memo {
				s.memo.put(ok)
			}
		}
		if ok {
			for c, col := range out.cols {
				col[out.n] = b.cols[c][r]
			}
			out.n++
		}
	}
	if s.ts != nil {
		s.ts.probes.Add(searched)
		s.ts.memoHits.Add(hits)
		if out.Len() > 0 {
			s.ts.rows.Add(int64(out.Len()))
			s.ts.batches.Add(1)
		}
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

// holds checks every group on input row r. It looks for a
// cancellation first: a search may end the query without yielding a
// batch, so the per-batch checks above may never see one.
func (s *vecSemi) holds(b *Batch, r int) (bool, error) {
	if err := s.cancel.now(); err != nil {
		return false, err
	}
	for _, sl := range s.keys {
		s.row[sl] = b.cols[sl][r]
	}
	for _, g := range s.groups {
		if ok, err := s.check(g); !ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

// check reports whether group g holds for s.row.
func (s *vecSemi) check(g *semiGroup) (bool, error) {
	found := false
	if !g.empty && g.pre.pass(s.c, &s.fmemo, s.row) {
		var err error
		if found, err = s.search(g, 0); err != nil {
			return false, err
		}
	}
	return found != g.anti, nil
}

// search reports whether g's stages from d on have a match extending
// s.row that every inner group holds for.
func (s *vecSemi) search(g *semiGroup, d int) (bool, error) {
	if d == len(g.steps) {
		for _, in := range g.inner {
			if ok, err := s.check(in); !ok || err != nil {
				return false, err
			}
		}
		return true, nil
	}
	j := g.steps[d]
	if j.ts != nil {
		j.ts.probes.Add(1)
	}
	switch j.kind {
	case opHash:
		if err := j.build(); err != nil {
			return false, err
		}
		cands := j.hash.table.get(s.row[j.joinSlot])
		for i := range cands {
			if ok, err := s.extend(g, d, cands[i][:]); ok || err != nil {
				return ok, err
			}
		}
	case opHashSeg:
		if err := j.build(); err != nil {
			return false, err
		}
		k := store.NoID
		if ps := j.seg.seg.probeSlot; ps >= 0 {
			k = s.row[ps]
		}
		cands, w := j.segProbe.rows(j.seg.table, k), j.seg.table.width
		for i := 0; i < len(cands); i += w {
			if ok, err := s.extend(g, d, cands[i:i+w]); ok || err != nil {
				return ok, err
			}
		}
	default: // opNL
		want := j.wantConst
		for i := 0; i < 3; i++ {
			if ws := j.wantSlot[i]; ws >= 0 {
				want[i] = s.row[ws]
			}
		}
		rng := store.Range(s.c.eng.src, want[0], want[1], want[2])
		cur := rng.Cursor()
		for run := cur.Run(); len(run) > 0; run = cur.Run() {
			for _, row := range run {
				if !passFilt(row, rng.Filt) {
					continue
				}
				t := unpermute(rng.Ord, row)
				if ok, err := s.extend(g, d, t[:]); ok || err != nil {
					return ok, err
				}
			}
			cur.Advance(len(run))
		}
	}
	return false, nil
}

// extend binds candidate t (a triple's SPO components, or a block row)
// at stage d of g, as vecJoin.emit would, and searches the stages after
// it.
func (s *vecSemi) extend(g *semiGroup, d int, t []store.ID) (bool, error) {
	if err := s.cancel.check(); err != nil {
		return false, err
	}
	j := g.steps[d]
	for _, w := range j.writes {
		s.row[w.slot] = t[w.comp]
	}
	for _, ck := range j.checks {
		if s.row[ck.slot] != t[ck.comp] {
			return false, nil
		}
	}
	if !j.conds.pass(s.c, &j.memo, s.row) {
		return false, nil
	}
	if j.ts != nil {
		j.ts.rows.Add(1)
	}
	return s.search(g, d+1)
}
