package engine

// Batch is the unit of the vectorized execution path (vec.go): a
// fixed-capacity columnar slab of dictionary IDs. It holds one column
// per variable slot of the compiled query, so any operator can read any
// bound variable by slot without schema negotiation — unbound slots are
// store.NoID.
//
// A selection vector lets filter kernels mark surviving rows without
// moving data: evaluation narrows sel, then one Compact call rewrites
// the columns. Batches travelling between operators are always dense
// (no selection pending); sel is an intra-operator construct.

import "sp2bench/internal/store"

// DefaultBatchSize is the row capacity of inter-operator batches when
// Options.BatchSize is zero. 1024 rows of 4-byte IDs keeps a dozen live
// columns comfortably inside L2 while amortizing per-batch overhead.
const DefaultBatchSize = 1024

// Batch is a fixed-capacity block of solution rows in columnar layout.
type Batch struct {
	cols [][]store.ID // cols[slot][row]; store.NoID = unbound
	sel  []int32      // selected physical row indexes, ascending; nil = all
	n    int          // physical rows filled
	// capacity is kept apart from the columns: a query without variables
	// has zero-width batches that still carry rows (solutions binding
	// nothing).
	capacity int
}

// NewBatch returns an empty batch of the given column count and row
// capacity. All cells start as store.NoID (the zero ID) so never-written
// slots read as unbound.
func NewBatch(width, capacity int) *Batch {
	capacity = max(capacity, 1)
	b := &Batch{cols: make([][]store.ID, width), capacity: capacity}
	backing := make([]store.ID, width*capacity)
	for s := range b.cols {
		b.cols[s] = backing[s*capacity : (s+1)*capacity : (s+1)*capacity]
	}
	return b
}

// Width returns the number of columns (variable slots).
func (b *Batch) Width() int { return len(b.cols) }

// Cap returns the row capacity.
func (b *Batch) Cap() int { return b.capacity }

// Len returns the number of physical rows filled, selected or not.
func (b *Batch) Len() int { return b.n }

// Live returns the number of selected rows: Len when no selection
// vector is pending.
func (b *Batch) Live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Full reports whether the batch has reached its row capacity.
func (b *Batch) Full() bool { return b.n == b.Cap() }

// Col returns the filled prefix of one column. The slice aliases the
// batch; it is invalidated by Compact and Reset.
func (b *Batch) Col(slot int) []store.ID { return b.cols[slot][:b.n] }

// Sel returns the pending selection vector (nil = all rows selected).
func (b *Batch) Sel() []int32 { return b.sel }

// SetSel installs a selection vector: ascending physical row indexes,
// each < Len. nil re-selects every row.
func (b *Batch) SetSel(sel []int32) { b.sel = sel }

// Reset empties the batch. Cells beyond Len may hold stale IDs from
// earlier fills; producers must write every bound slot of each row they
// append, and unbound slots are only guaranteed NoID for columns that
// have never been written (see vecLeftJoin's explicit NoID writes).
func (b *Batch) Reset() { b.n, b.sel = 0, nil }

// Append copies one dense row (len == Width) into the next physical
// row. It reports false, appending nothing, when the batch is full.
func (b *Batch) Append(row []store.ID) bool {
	if b.Full() {
		return false
	}
	for s := range b.cols {
		b.cols[s][b.n] = row[s]
	}
	b.n++
	return true
}

// CopyRow gathers physical row i across all columns into buf, growing
// it as needed, and returns the row slice.
func (b *Batch) CopyRow(i int, buf []store.ID) []store.ID {
	if cap(buf) < len(b.cols) {
		buf = make([]store.ID, len(b.cols))
	}
	buf = buf[:len(b.cols)]
	for s := range b.cols {
		buf[s] = b.cols[s][i]
	}
	return buf
}

// Truncate drops rows past n from a dense batch (LIMIT landing
// mid-batch). A no-op when n is not smaller than Len or a selection is
// pending.
func (b *Batch) Truncate(n int) {
	if b.sel == nil && n >= 0 && n < b.n {
		b.n = n
	}
}

// Compact applies the pending selection vector physically: selected
// rows slide to the front of every column, Len becomes Live, and the
// selection clears. A no-op without a pending selection.
func (b *Batch) Compact() {
	if b.sel == nil {
		return
	}
	for _, col := range b.cols {
		for i, r := range b.sel {
			col[i] = col[r] // sel is ascending, so r >= i: forward copy is safe
		}
	}
	b.n = len(b.sel)
	b.sel = nil
}

// appendRows copies the rows of the dense batch src from row from
// onward into b's free rows, as many as fit, and returns how many it
// copied. The batches must have the same width.
func (b *Batch) appendRows(src *Batch, from int) int {
	n := min(src.n-from, b.capacity-b.n)
	for s, col := range b.cols {
		copy(col[b.n:b.n+n], src.cols[s][from:from+n])
	}
	b.n += n
	return n
}
