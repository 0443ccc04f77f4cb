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
	"slices"
	"strings"

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
			j.ts.op, j.ts.est = "semi:"+j.kind.String(), 0
			tsteps = append(tsteps, j.ts)
		}
		ch.tsteps = tsteps
	}
	return append(stages[:1+at:1+at], "semi["+strings.Join(inner, " ")+"]")
}

// vecSemi is the semi-join stage: a filter over its input that keeps a
// row when each group of the suffix's stages has a match extending it.
// Stages form one group when one reads a slot another binds; groups
// share nothing but the input row, so each is searched on its own, and
// one failing group settles the row. Each stage keeps the access method
// the planner chose: an index probe (nl), the shared hash table (hash),
// or the hashed block's value-keyed bucket (hashseg), with the stage's
// filter conjuncts checked on each candidate. The verdict is memoized
// per distinct value of the slots the suffix reads from the row, one
// memo per partition.
type vecSemi struct {
	c      *compiled
	cancel *canceller // per partition: c.cancel is not goroutine-safe
	child  vecOp
	// steps are the suffix's stages in search order: group g is
	// steps[ends[g-1]:ends[g]], each group in planner order.
	steps []*vecJoin
	ends  []int
	keys  []int   // the input slots the suffix reads
	est   float64 // the planner's estimate of the rows kept
	ts    *tstep

	memo slotMap[bool] // each key's verdict
	row  []store.ID    // the search's bindings: the keys, then each stage's writes
	out  *Batch
	in   *Batch // the input batch being searched, from row ipos on
	ipos int
	done bool
}

// plan groups the suffix stages into s.steps and s.ends, sets the key,
// the slots bound in front of the suffix that some stage reads, and
// returns the search order as indexes into suffix.
func (s *vecSemi) plan(suffix []*vecJoin) []int {
	pre := suffix[0].prevBound
	group := make([]int, len(suffix))
	writer := map[int]int{} // slot → the suffix stage binding it
	key := map[int]bool{}
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
			} else if slices.Contains(pre, sl) {
				key[sl] = true
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
	for _, g := range groups {
		for _, x := range g {
			order = append(order, x)
			s.steps = append(s.steps, suffix[x])
		}
		s.ends = append(s.ends, len(s.steps))
	}
	s.keys = sortedSlots(key)
	return order
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
	for _, f := range j.conds.fast {
		reads = append(reads, f.l, f.r)
	}
	for _, e := range j.conds.slow {
		for _, v := range sparql.ExprVars(e) {
			if s, ok := c.slots[v]; ok {
				reads = append(reads, s)
			}
		}
	}
	return slices.DeleteFunc(reads, func(s int) bool {
		return slices.ContainsFunc(j.writes, func(w compBind) bool { return w.slot == s })
	})
}

// clone returns a copy of a planned, never opened stage for one
// partition: its own stages' cursors and memos, the same shared builds.
func (s *vecSemi) clone() *vecSemi {
	if s == nil {
		return nil
	}
	cp := *s
	cp.steps = make([]*vecJoin, len(s.steps))
	for i, j := range s.steps {
		jj := *j
		cp.steps[i] = &jj
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
	if s.row == nil {
		s.row = make([]store.ID, len(s.c.names))
	}
}

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
		s.memo.load(b.cols, r)
		ok, known := s.memo.get()
		if known {
			hits++
		} else {
			searched++
			var err error
			if ok, err = s.holds(b, r); err != nil {
				return nil, err
			}
			s.memo.put(ok)
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

// holds searches every group for a match extending input row r.
func (s *vecSemi) holds(b *Batch, r int) (bool, error) {
	for _, sl := range s.keys {
		s.row[sl] = b.cols[sl][r]
	}
	start := 0
	for _, end := range s.ends {
		if ok, err := s.search(start, end); !ok || err != nil {
			return false, err
		}
		start = end
	}
	return true, nil
}

// search reports whether steps[d:end] have a match extending s.row.
func (s *vecSemi) search(d, end int) (bool, error) {
	if d == end {
		return true, nil
	}
	j := s.steps[d]
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
			if ok, err := s.extend(d, end, cands[i][:]); ok || err != nil {
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
			if ok, err := s.extend(d, end, cands[i:i+w]); ok || err != nil {
				return ok, err
			}
		}
	default: // opNL
		var want store.EncTriple
		for i := 0; i < 3; i++ {
			if ws := j.wantSlot[i]; ws >= 0 {
				want[i] = s.row[ws]
			} else {
				want[i] = j.wantConst[i]
			}
		}
		rng := s.c.eng.src.Range(want[0], want[1], want[2])
		cur := rng.Cursor()
		for run := cur.Run(); len(run) > 0; run = cur.Run() {
			for _, row := range run {
				if !passFilt(row, rng.Filt) {
					continue
				}
				t := unpermute(rng.Ord, row)
				if ok, err := s.extend(d, end, t[:]); ok || err != nil {
					return ok, err
				}
			}
			cur.Advance(len(run))
		}
	}
	return false, nil
}

// extend binds candidate t (a triple's SPO components, or a block row)
// at step d, as vecJoin.emit would, and searches the steps after it.
func (s *vecSemi) extend(d, end int, t []store.ID) (bool, error) {
	if err := s.cancel.check(); err != nil {
		return false, err
	}
	j := s.steps[d]
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
	return s.search(d+1, end)
}
