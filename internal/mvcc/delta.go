package mvcc

import (
	"sort"

	"sp2bench/internal/store"
)

// deltaIndex is the small, immutable index over the triples inserted
// since the base generation froze. Like the frozen store it keeps the
// three SPO/POS/OSP sorted runs, so a snapshot can answer any triple
// pattern with the base's directory-located range and the delta's as
// the two runs of one range — the differential-index design of RDF-3X: an indexed immutable core
// plus a small delta, compacted in the background.
//
// A deltaIndex value is never mutated after it is published in a
// version: each commit builds the next one by merging the previous runs
// with the new batch (O(delta+batch), cheap because the merger keeps
// deltas small).
type deltaIndex struct {
	// runs hold the delta triples in each ordering's component order,
	// sorted with the store's comparison, deduplicated, and disjoint
	// from the base generation (commits drop triples the base already
	// holds, so base+delta counts add without overlap).
	runs [3][]store.EncTriple
	// batches records each committed batch (SPO order, deduplicated,
	// base-disjoint) in commit order. The merger uses it to subtract
	// the compacted prefix from the live delta when it installs a new
	// generation; it shares backing arrays with the runs' inputs but is
	// itself append-only.
	batches [][]store.EncTriple
	// predCount is the delta's per-predicate triple count — the delta
	// half of the snapshot's optimizer statistics.
	predCount map[store.ID]int
}

// size returns the number of delta triples.
func (d *deltaIndex) size() int { return len(d.runs[store.OrderSPO]) }

// bytes approximates the three runs' footprint (12 bytes per row).
func (d *deltaIndex) bytes() int64 {
	return 3 * int64(d.size()) * 12
}

// contains reports whether the delta holds the triple (SPO order).
func (d *deltaIndex) contains(t store.EncTriple) bool {
	run := d.runs[store.OrderSPO]
	i := sort.Search(len(run), func(i int) bool {
		return store.CompareEnc(run[i], t) >= 0
	})
	return i < len(run) && run[i] == t
}

// extend builds the next deltaIndex from the previous one plus a new
// batch (SPO-sorted, deduplicated, disjoint from base and delta). The
// receiver is not modified.
func (d *deltaIndex) extend(batch []store.EncTriple) *deltaIndex {
	next := &deltaIndex{
		batches:   append(d.batches[:len(d.batches):len(d.batches)], batch),
		predCount: make(map[store.ID]int, len(d.predCount)+1),
	}
	for p, n := range d.predCount {
		next.predCount[p] = n
	}
	for _, t := range batch {
		next.predCount[t[1]]++
	}
	for _, ord := range []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP} {
		add := batch
		if ord != store.OrderSPO {
			add = make([]store.EncTriple, len(batch))
			for i, t := range batch {
				add[i] = ord.Permute(t)
			}
			store.SortEncTriples(add)
		}
		next.runs[ord] = store.MergeRuns(d.runs[ord], add)
	}
	return next
}

// rebuildDelta folds a sequence of committed batches (each SPO-sorted,
// deduplicated, mutually disjoint) into one deltaIndex — how the merger
// reconstitutes the leftover delta after compacting a prefix of the
// batches into a new base generation.
func rebuildDelta(batches [][]store.EncTriple) *deltaIndex {
	d := &deltaIndex{predCount: map[store.ID]int{}}
	for _, b := range batches {
		d = d.extend(b)
	}
	return d
}

// rangeIn returns the delta rows matching a pattern within one index
// ordering, with the same prefix/residual semantics as
// store.Store.RangeIn: rows whose first prefix components equal the
// key, plus the residual filter for bound components past the prefix.
// The run is small and has no directory, so the whole prefix is found
// by the store's within-run search.
func (d *deltaIndex) rangeIn(ord store.Order, sub, pred, obj store.ID) store.IndexRange {
	key := ord.Permute(store.EncTriple{sub, pred, obj})
	run := d.runs[ord]
	prefix := 0
	for prefix < 3 && key[prefix] != store.NoID {
		prefix++
	}
	lo, hi := store.SearchRun(run, key, prefix)
	var filt store.EncTriple
	for i := prefix; i < 3; i++ {
		filt[i] = key[i]
	}
	return store.IndexRange{Ord: ord, Rows: run[lo:hi], Lead: prefix, Filt: filt}
}

// count returns the number of delta triples matching the pattern.
func (d *deltaIndex) count(sub, pred, obj store.ID) int {
	ord := store.ChooseOrder(sub != store.NoID, pred != store.NoID, obj != store.NoID)
	rng := d.rangeIn(ord, sub, pred, obj)
	if rng.Filt == (store.EncTriple{}) {
		return rng.Len()
	}
	n := 0
	it := rng.Iterator()
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}
