package store

import "sort"

// IndexRange is the part of one index matching a pattern's bound
// components, held as one or two sorted runs. Rows and Delta are in
// Ord's component order, sorted by the store's comparison and disjoint;
// the range's rows are their merge, called merged order here. A frozen
// store's ranges are Rows alone. An MVCC snapshot puts the base
// generation's rows in Rows and the delta's in Delta, so a range both
// touch is served without a copy. The first Lead components equal the
// pattern's constants, and Filt carries any bound component past the
// lead as a residual constraint (NoID = unconstrained). The runs alias
// the indexes — callers must not mutate them.
//
// An IndexRange is the unit the physical-operator layer of the query
// engine works with: it is read in merged order through a Cursor,
// partitioned into contiguous sub-ranges for parallel scans, or merged
// against another range that is sorted on the same component.
//
// The field order keeps the struct at 72 bytes: ranges are returned by
// value on every index probe, and a multiple of 16 above 64 bytes would
// be copied through a runtime routine instead of inline moves.
type IndexRange struct {
	Rows  []EncTriple
	Delta []EncTriple
	Lead  int
	Filt  EncTriple
	Ord   Order
}

// Len returns the number of rows in the range before the residual
// filter: both runs together.
func (r IndexRange) Len() int { return len(r.Rows) + len(r.Delta) }

// Cursor returns a cursor at the range's first row.
func (r IndexRange) Cursor() Cursor {
	return Cursor{a: r.Rows, b: r.Delta, ord: r.Ord, lead: r.Lead, filt: r.Filt}
}

// CopyColumns is Cursor.CopyColumns from position start of the merged
// order: a caller resumes at start+consumed. Over two runs each call
// finds start by a binary search; a scan that keeps a Cursor does not.
func (r IndexRange) CopyColumns(start, max int, s, p, o []ID) (written, consumed int) {
	c := r.Cursor()
	c.Skip(start)
	return c.CopyColumns(max, s, p, o)
}

// Partition splits the range into at most parts contiguous sub-ranges
// of near-equal row counts, preserving merged order: concatenating the
// partitions' merged rows yields exactly the original range's. Rows is
// cut by count, and Delta at the same keys by binary search, so a
// part's Delta holds the delta rows that sort between its first row and
// the next part's. Fewer than parts ranges are returned when Rows has
// fewer rows than parts.
func (r IndexRange) Partition(parts int) []IndexRange {
	if len(r.Rows) == 0 {
		r.Rows, r.Delta = r.Delta, nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > len(r.Rows) {
		parts = max(1, len(r.Rows))
	}
	out := make([]IndexRange, 0, parts)
	dlo := 0
	for i := 0; i < parts; i++ {
		lo := i * len(r.Rows) / parts
		hi := (i + 1) * len(r.Rows) / parts
		dhi := len(r.Delta)
		if hi < len(r.Rows) {
			dhi = dlo + below(r.Delta[dlo:], r.Rows[hi])
		}
		p := r
		p.Rows, p.Delta = r.Rows[lo:hi], r.Delta[dlo:dhi]
		out = append(out, p)
		dlo = dhi
	}
	return out
}

// Cursor walks an IndexRange's rows in merged order without
// allocating. It is a value: a copy saves its position, which is how a
// merge join returns to the start of a key's rows (its field order keeps
// it at 72 bytes, as IndexRange's does). Each method tests
// once per call, not per row, whether the second run is empty, so
// reading a one-run range costs what reading a slice does.
//
// Row-at-a-time readers take the rows in stretches: Run returns the
// unread rows that come next and lie in one run — the whole remainder
// of a one-run range — and Advance moves past those the reader used.
type Cursor struct {
	a, b []EncTriple // the unread rows of each run
	lead int
	filt EncTriple
	ord  Order
}

// Len returns the number of unread rows.
func (c *Cursor) Len() int { return len(c.a) + len(c.b) }

// Run returns the unread rows that come next in merged order and lie in
// one run, without moving the cursor. It is empty at the end.
func (c *Cursor) Run() []EncTriple {
	if len(c.b) == 0 {
		return c.a // one run: small enough to inline
	}
	return c.mergedRun()
}

func (c *Cursor) mergedRun() []EncTriple {
	switch {
	case len(c.a) == 0:
		return c.b
	case cmpTriple(c.a[0], c.b[0]) < 0:
		return c.a[:below(c.a, c.b[0])]
	default:
		return c.b[:below(c.b, c.a[0])]
	}
}

// Advance moves past the first n rows of Run.
func (c *Cursor) Advance(n int) {
	if len(c.b) == 0 {
		c.a = c.a[n:]
		return
	}
	c.advanceMerged(n)
}

func (c *Cursor) advanceMerged(n int) {
	if len(c.a) > 0 && cmpTriple(c.a[0], c.b[0]) < 0 {
		c.a = c.a[n:]
	} else {
		c.b = c.b[n:]
	}
}

// Skip moves past the next n rows in merged order. Over two runs it
// finds how many of them each run holds by one binary search.
func (c *Cursor) Skip(n int) {
	if len(c.b) == 0 {
		c.a = c.a[n:]
		return
	}
	// i rows come from a when a[i] is the first a row after b[n-i-1].
	lo, hi := max(0, n-len(c.b)), min(n, len(c.a))
	i := lo + sort.Search(hi-lo, func(k int) bool {
		return cmpTriple(c.a[lo+k], c.b[n-lo-k-1]) > 0
	})
	c.a, c.b = c.a[i:], c.b[n-i:]
}

// Seek moves forward to the first unread row whose component Lead is at
// least key, galloping each run from the cursor: within a range the
// rows are sorted on that component.
func (c *Cursor) Seek(key ID) {
	c.a = c.a[gallop(c.a, c.lead, key):]
	if len(c.b) > 0 {
		c.b = c.b[gallop(c.b, c.lead, key):]
	}
}

// CopyColumns decodes unread rows directly into component columns and
// moves past them: in merged order it visits rows until max of them
// have passed the residual filter, unpermutes each passing row into SPO
// component order, and writes its components into s, p and o (nil =
// component not wanted). It returns the number of rows written and the
// number consumed, so repeated calls resume where the last stopped.
// This is the vectorized scan's bulk path: one call fills a whole
// column batch without per-row iterator dispatch.
func (c *Cursor) CopyColumns(max int, s, p, o []ID) (written, consumed int) {
	dst := [3][]ID{s, p, o}
	// Map destination columns into index component order once, so the
	// row loop indexes them directly.
	var cdst [3][]ID
	for i := 0; i < 3; i++ {
		cdst[i] = dst[ordPos(c.ord, i)]
	}
	for written < max {
		run := c.Run()
		if len(run) == 0 {
			break
		}
		w, n := copyRun(run, &cdst, c.filt, written, max)
		c.Advance(n)
		written, consumed = w, consumed+n
	}
	return written, consumed
}

// copyRun is CopyColumns' loop over one run: it writes matching rows
// into the columns from row written on until max are written, and
// returns the new written count and the rows consumed.
func copyRun(rows []EncTriple, cdst *[3][]ID, filt EncTriple, written, max int) (int, int) {
	noFilt := filt == EncTriple{}
	consumed := 0
	for consumed < len(rows) && written < max {
		row := rows[consumed]
		consumed++
		if !noFilt &&
			((filt[0] != NoID && row[0] != filt[0]) ||
				(filt[1] != NoID && row[1] != filt[1]) ||
				(filt[2] != NoID && row[2] != filt[2])) {
			continue
		}
		if cdst[0] != nil {
			cdst[0][written] = row[0]
		}
		if cdst[1] != nil {
			cdst[1][written] = row[1]
		}
		if cdst[2] != nil {
			cdst[2][written] = row[2]
		}
		written++
	}
	return written, consumed
}

// ordPos returns the SPO position held by component i of an
// ord-ordered row.
func ordPos(ord Order, i int) int {
	switch ord {
	case OrderSPO:
		return i
	case OrderPOS:
		return [3]int{1, 2, 0}[i]
	default: // OrderOSP
		return [3]int{2, 0, 1}[i]
	}
}

// below returns how many leading rows of a sorted run sort before key,
// galloping from the front: O(log n) in the answer, not the run.
func below(rows []EncTriple, key EncTriple) int {
	n := 1
	for n < len(rows) && cmpTriple(rows[n], key) < 0 {
		n *= 2
	}
	lo, hi := n/2, min(n, len(rows))
	return lo + sort.Search(hi-lo, func(i int) bool { return cmpTriple(rows[lo+i], key) >= 0 })
}

// gallop returns the first index whose row has component comp >= key,
// within rows sorted on that component, by exponential then binary
// search from the front.
func gallop(rows []EncTriple, comp int, key ID) int {
	if len(rows) == 0 || rows[0][comp] >= key {
		return 0
	}
	lo, hi := 0, 1
	for hi < len(rows) && rows[hi][comp] < key {
		lo = hi
		hi *= 2
	}
	hi = min(hi, len(rows))
	return lo + sort.Search(hi-lo, func(i int) bool { return rows[lo+i][comp] >= key })
}
