package engine

import (
	"slices"

	"sp2bench/internal/algebra"
	"sp2bench/internal/store"
)

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

// newBatchRow reports whether row r of a batch's slot columns is new
// to the set, adding it.
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
