package engine

import (
	"slices"
	"sort"

	"sp2bench/internal/algebra"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// joinIter is a correlated bind join: for every left row the right subplan
// is re-opened with the left bindings substituted, so compatible mappings
// merge by construction.
type joinIter struct {
	left, right subplan
	cur         []store.ID
	haveLeft    bool
	done        bool
}

func (j *joinIter) open(parent []store.ID) {
	j.left.open(parent)
	j.haveLeft = false
	j.done = false
}

func (j *joinIter) next() ([]store.ID, bool, error) {
	if j.done {
		return nil, false, nil
	}
	for {
		if !j.haveLeft {
			l, ok, err := j.left.next()
			if err != nil || !ok {
				j.done = true
				return nil, false, err
			}
			j.right.open(l)
			j.haveLeft = true
		}
		r, ok, err := j.right.next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return r, true, nil
		}
		j.haveLeft = false
	}
}

// leftJoinIter implements OPTIONAL. In bind-join mode the right side is
// re-opened per left row. When materializeRight is set (native engines,
// uncorrelated right sides) the right side is evaluated once; if the
// condition contains a cross-side equality the right rows are additionally
// hashed on it.
type leftJoinIter struct {
	c           *compiled
	left, right subplan
	cond        sparql.Expr

	materializeRight bool
	residual         []sparql.Expr // cond conjuncts beyond the hash key
	hashLeftSlot     int
	hashRightSlot    int

	// run state
	parent []store.ID
	// table holds the materialized right rows (merged-width), keyed by
	// the value key (valueKey) of the equality slot when there is one —
	// NOT by dictionary ID, which is term identity and would drop
	// value-equal extensions with distinct lexical forms ("1" vs "01").
	// Buckets may be coarser than `=`; the conjunct stays in residual as
	// the semantic check. nil until materialized.
	table    *valueTable
	probe    valueProbe
	leftRow  []store.ID
	haveLeft bool
	matched  bool
	candIdx  int        // offset of the next candidate in cands
	cands    []store.ID // the current left row's candidates, flat
	done     bool
	buf      []store.ID
}

func (lj *leftJoinIter) open(parent []store.ID) {
	lj.left.open(parent)
	lj.parent = append(lj.parent[:0], parent...)
	lj.haveLeft = false
	lj.table = nil
	lj.done = false
}

func (lj *leftJoinIter) next() ([]store.ID, bool, error) {
	if lj.done {
		return nil, false, nil
	}
	for {
		if !lj.haveLeft {
			l, ok, err := lj.left.next()
			if err != nil || !ok {
				lj.done = true
				return nil, false, err
			}
			lj.leftRow = l
			lj.haveLeft = true
			lj.matched = false
			if lj.materializeRight {
				if err := lj.ensureMaterialized(); err != nil {
					return nil, false, err
				}
				key := store.NoID
				if lj.hashLeftSlot >= 0 {
					key = l[lj.hashLeftSlot]
				}
				lj.cands = lj.probe.rows(lj.table, key)
				lj.candIdx = 0
			} else {
				lj.right.open(l)
			}
		}
		if lj.materializeRight {
			row, ok, err := lj.nextMaterialized()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return row, true, nil
			}
		} else {
			row, ok, err := lj.nextBind()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return row, true, nil
			}
		}
		// right exhausted for this left row
		lj.haveLeft = false
		if !lj.matched {
			return lj.leftRow, true, nil
		}
	}
}

// nextBind advances the correlated right side.
func (lj *leftJoinIter) nextBind() ([]store.ID, bool, error) {
	for {
		r, ok, err := lj.right.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		pass, err := lj.condHolds(r)
		if err != nil {
			return nil, false, err
		}
		if pass {
			lj.matched = true
			return r, true, nil
		}
	}
}

// nextMaterialized advances through the pre-evaluated right rows, merging
// each candidate with the current left row.
func (lj *leftJoinIter) nextMaterialized() ([]store.ID, bool, error) {
	for lj.candIdx < len(lj.cands) {
		if err := lj.c.cancel.check(); err != nil {
			return nil, false, err
		}
		w := lj.table.width
		cand := lj.cands[lj.candIdx : lj.candIdx+w]
		lj.candIdx += w
		merged, ok := mergeRows(lj.leftRow, cand, &lj.buf)
		if !ok {
			continue
		}
		pass := true
		if lj.hashLeftSlot < 0 && lj.cond != nil {
			// No hash key extracted: evaluate the full condition.
			var err error
			pass, err = algebra.EvalBool(lj.cond, rowBinding{c: lj.c, row: merged})
			if err != nil {
				pass = false
			}
		} else {
			for _, conj := range lj.residual {
				v, err := algebra.EvalBool(conj, rowBinding{c: lj.c, row: merged})
				if err != nil || !v {
					pass = false
					break
				}
			}
		}
		if pass {
			lj.matched = true
			return merged, true, nil
		}
	}
	return nil, false, nil
}

// ensureMaterialized evaluates the uncorrelated right side once into
// a valueTable, keyed on the extracted equality when there is one.
func (lj *leftJoinIter) ensureMaterialized() error {
	if lj.table != nil {
		return nil
	}
	lj.right.open(lj.parent)
	var flat, keyIDs []store.ID
	width, n := 0, 0
	for {
		r, ok, err := lj.right.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if lj.hashLeftSlot >= 0 {
			id := r[lj.hashRightSlot]
			if id == store.NoID {
				continue // unbound key: `=` raises, the extension is rejected
			}
			keyIDs = append(keyIDs, id)
		}
		flat = append(flat, r...)
		width = len(r)
		n++
	}
	lj.table = newValueTable(lj.c.eng.src.TermDict(), flat, width, n, keyIDs)
	return nil
}

func (lj *leftJoinIter) condHolds(merged []store.ID) (bool, error) {
	if lj.cond == nil {
		return true, nil
	}
	v, err := algebra.EvalBool(lj.cond, rowBinding{c: lj.c, row: merged})
	if err != nil {
		// A type error in the left join condition rejects the extension
		// (the row survives unextended if nothing else matches).
		return false, nil
	}
	return v, nil
}

// mergeRows merges a materialized right row into a left row; it fails when
// both bind the same slot to different IDs (incompatible mappings). buf is
// reused across calls.
func mergeRows(l, r []store.ID, buf *[]store.ID) ([]store.ID, bool) {
	if cap(*buf) < len(l) {
		*buf = make([]store.ID, len(l))
	}
	out := (*buf)[:len(l)]
	copy(out, l)
	for i, v := range r {
		if v == store.NoID {
			continue
		}
		if out[i] != store.NoID && out[i] != v {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// unionIter yields all left solutions then all right solutions.
type unionIter struct {
	left, right subplan
	onRight     bool
}

func (u *unionIter) open(parent []store.ID) {
	u.left.open(parent)
	u.right.open(parent)
	u.onRight = false
}

func (u *unionIter) next() ([]store.ID, bool, error) {
	if !u.onRight {
		row, ok, err := u.left.next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
		u.onRight = true
	}
	return u.right.next()
}

// filterIter applies a FILTER expression; type errors reject the solution.
type filterIter struct {
	c     *compiled
	input subplan
	cond  sparql.Expr
}

func (f *filterIter) open(parent []store.ID) { f.input.open(parent) }

func (f *filterIter) next() ([]store.ID, bool, error) {
	for {
		row, ok, err := f.input.next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := algebra.EvalBool(f.cond, rowBinding{c: f.c, row: row})
		if err == nil && v {
			return row, true, nil
		}
	}
}

// projectIter zeroes the slots of non-projected variables so that
// downstream DISTINCT compares only the projection.
type projectIter struct {
	input subplan
	keep  []bool
	buf   []store.ID
}

func (p *projectIter) open(parent []store.ID) { p.input.open(parent) }

func (p *projectIter) next() ([]store.ID, bool, error) {
	row, ok, err := p.input.next()
	if err != nil || !ok {
		return nil, false, err
	}
	if cap(p.buf) < len(row) {
		p.buf = make([]store.ID, len(row))
	}
	out := p.buf[:len(row)]
	for i, v := range row {
		if p.keep[i] {
			out[i] = v
		} else {
			out[i] = store.NoID
		}
	}
	return out, true, nil
}

// distinctIter suppresses duplicate rows.
type distinctIter struct {
	c     *compiled
	input subplan
	set   distinctSet
}

func (d *distinctIter) open(parent []store.ID) {
	d.input.open(parent)
	d.set.reset()
}

func (d *distinctIter) next() ([]store.ID, bool, error) {
	for {
		row, ok, err := d.input.next()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := d.c.cancel.check(); err != nil {
			return nil, false, err
		}
		if d.set.newRow(row) {
			return row, true, nil
		}
	}
}

// distinctSlots returns the slots a DISTINCT over in keys its rows on.
// Over a projection (the only input Translate gives DISTINCT) every
// other slot is NoID, so the key is the projected variables' slots,
// minus those of variables no pattern below binds: they are NoID in
// every row too. Over any other input the key is every slot.
func (c *compiled) distinctSlots(in algebra.Node) []int {
	proj, ok := in.(*algebra.ProjectNode)
	if !ok {
		slots := make([]int, len(c.names))
		for s := range slots {
			slots[s] = s
		}
		return slots
	}
	bound := map[string]bool{}
	for _, v := range proj.Input.Vars() {
		bound[v] = true
	}
	var slots []int
	for _, v := range proj.Columns {
		if s, ok := c.slots[v]; ok && bound[v] && !slices.Contains(slots, s) {
			slots = append(slots, s)
		}
	}
	return slots
}

// slotMap maps rows, keyed on their values in a fixed list of slots
// (term identity: one ID per term), to a V. Up to two slots pack into a
// uint64 key, where NoID (unbound) differs from every real ID; more
// slots key on 4 bytes per slot. load sets the current row; get and put
// then read and write its entry.
type slotMap[V any] struct {
	slots  []int
	packed map[uint64]V
	wide   map[string]V
	pk     uint64 // the current row's packed key
	key    []byte // the current row's wide key
}

// reset empties the map.
func (m *slotMap[V]) reset() {
	if len(m.slots) <= 2 {
		m.packed = make(map[uint64]V)
	} else {
		m.wide = make(map[string]V)
	}
}

// load makes row r of a batch's slot columns the current row.
func (m *slotMap[V]) load(cols [][]store.ID, r int) {
	if m.packed != nil {
		m.pk = 0
		for i, s := range m.slots {
			m.pk |= uint64(cols[s][r]) << (32 * i)
		}
		return
	}
	m.key = m.key[:0]
	for _, s := range m.slots {
		v := cols[s][r]
		m.key = append(m.key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// loadRow is load for a tuple row.
func (m *slotMap[V]) loadRow(row []store.ID) {
	if m.packed != nil {
		m.pk = 0
		for i, s := range m.slots {
			m.pk |= uint64(row[s]) << (32 * i)
		}
		return
	}
	m.key = m.key[:0]
	for _, s := range m.slots {
		v := row[s]
		m.key = append(m.key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// get returns the current row's entry.
func (m *slotMap[V]) get() (V, bool) {
	if m.packed != nil {
		v, ok := m.packed[m.pk]
		return v, ok
	}
	// The indexed string(m.key) conversion compiles to an
	// allocation-free map lookup; only put allocates a new row's key.
	v, ok := m.wide[string(m.key)]
	return v, ok
}

// put sets the current row's entry.
func (m *slotMap[V]) put(v V) {
	if m.packed != nil {
		m.packed[m.pk] = v
		return
	}
	m.wide[string(m.key)] = v
}

// distinctSet is the set of rows a DISTINCT has emitted.
type distinctSet struct {
	slotMap[struct{}]
}

func newDistinctSet(slots []int) distinctSet {
	return distinctSet{slotMap[struct{}]{slots: slots}}
}

// newRow reports whether the tuple row is new to the set, adding it.
func (d *distinctSet) newRow(row []store.ID) bool {
	d.loadRow(row)
	return d.insert()
}

// newBatchRow is newRow for row r of a batch's slot columns.
func (d *distinctSet) newBatchRow(cols [][]store.ID, r int) bool {
	d.load(cols, r)
	return d.insert()
}

// keepNew narrows dense batch b, in place, to its rows new to the set,
// adding them.
func (d *distinctSet) keepNew(b *Batch, selbuf *[]int32) {
	sel := emptySel(*selbuf)
	for r := 0; r < b.n; r++ {
		if d.newBatchRow(b.cols, r) {
			sel = append(sel, int32(r))
		}
	}
	*selbuf = sel
	if len(sel) < b.n {
		b.SetSel(sel)
		b.Compact()
	}
}

func (d *distinctSet) insert() bool {
	if _, dup := d.get(); dup {
		return false
	}
	d.put(struct{}{})
	return true
}

// orderKey is one compiled ORDER BY condition.
type orderKey struct {
	slot int
	desc bool
}

// orderIter materializes and sorts its input. Ordering follows SPARQL 1.0:
// unbound < blank nodes < IRIs < literals, numeric-aware inside literals.
type orderIter struct {
	c     *compiled
	input subplan
	keys  []orderKey
	rows  [][]store.ID
	pos   int
	built bool
}

func (o *orderIter) open(parent []store.ID) {
	o.input.open(parent)
	o.rows = nil
	o.pos = 0
	o.built = false
}

func (o *orderIter) next() ([]store.ID, bool, error) {
	if !o.built {
		for {
			row, ok, err := o.input.next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			o.rows = append(o.rows, append([]store.ID(nil), row...))
			if err := o.c.cancel.check(); err != nil {
				return nil, false, err
			}
		}
		dict := o.c.eng.src.TermDict()
		sort.SliceStable(o.rows, func(i, j int) bool {
			a, b := o.rows[i], o.rows[j]
			for _, k := range o.keys {
				if k.slot < 0 {
					continue
				}
				av, bv := a[k.slot], b[k.slot]
				cmp := 0
				switch {
				case av == bv:
					continue
				case av == store.NoID:
					cmp = -1
				case bv == store.NoID:
					cmp = 1
				default:
					cmp = dict.Term(av).Compare(dict.Term(bv))
				}
				if cmp == 0 {
					continue
				}
				if k.desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		o.built = true
	}
	if o.pos >= len(o.rows) {
		return nil, false, nil
	}
	row := o.rows[o.pos]
	o.pos++
	return row, true, nil
}

// sliceIter applies OFFSET and LIMIT.
type sliceIter struct {
	input   subplan
	offset  int
	limit   int
	skipped int
	emitted int
}

func (s *sliceIter) open(parent []store.ID) {
	s.input.open(parent)
	s.skipped = 0
	s.emitted = 0
}

func (s *sliceIter) next() ([]store.ID, bool, error) {
	for s.offset > 0 && s.skipped < s.offset {
		_, ok, err := s.input.next()
		if err != nil || !ok {
			return nil, false, err
		}
		s.skipped++
	}
	if s.limit >= 0 && s.emitted >= s.limit {
		return nil, false, nil
	}
	row, ok, err := s.input.next()
	if err != nil || !ok {
		return nil, false, err
	}
	s.emitted++
	return row, true, nil
}
