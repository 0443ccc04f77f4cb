package mvcc

import (
	"sync"

	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// Snapshot pins one dataset version and serves the store.Reader query
// surface over it: every pattern lookup pairs the frozen base
// generation's directory-located range with the delta's as the two runs
// of one store.IndexRange, which the engine's operators (merge joins,
// partitioned parallel scans, galloping) read in merged order through a
// store.Cursor without a copy. Only Triples, the mem engine's full
// scan, merges the two into a slice. A Snapshot is immutable and safe
// for concurrent use; it observes no commit made after it was taken,
// which is the per-query consistency guarantee — a query never sees
// half of a batch.
//
// Snapshots are cheap (an atomic load plus a refcount) and meant to be
// per-request: take one, build an engine with engine.NewReader, run the
// query, Close. Close releases the epoch refcount; until every snapshot
// of a retired generation closes, that generation stays reachable.
type Snapshot struct {
	s    *Store
	v    *version
	dict snapDict
	// terms is dict boxed as a store.TermSource once, here: converting
	// the struct on every TermDict call would allocate per call, and the
	// engine calls it per compared or materialized cell.
	terms store.TermSource

	// triples lazily materializes the merged SPO dataset for full-scan
	// consumers (the mem engine); index-based engines never pay for it.
	triplesOnce sync.Once
	triples     []store.EncTriple

	closeOnce sync.Once
}

// Snapshot pins the current version and returns a reader over it.
// Callers must Close the snapshot when done.
func (s *Store) Snapshot() *Snapshot {
	v := s.cur.Load()
	v.refs.Add(1)
	s.active.Add(1)
	mActiveSnapshots.Inc()
	sn := &Snapshot{
		s: s,
		v: v,
		dict: snapDict{
			base:   v.base.Dict(),
			terms:  v.terms,
			lookup: v.lookup,
		},
	}
	sn.terms = &sn.dict
	return sn
}

// Close releases the snapshot's pin on its version. Closing twice is a
// no-op; using the snapshot after Close is still safe (versions are
// immutable) but keeps the refcount accounting honest only if avoided.
func (sn *Snapshot) Close() {
	sn.closeOnce.Do(func() {
		sn.v.refs.Add(-1)
		sn.s.active.Add(-1)
		mActiveSnapshots.Dec()
	})
}

// Generation returns the base generation number this snapshot pins.
func (sn *Snapshot) Generation() uint64 { return sn.v.gen }

// DeltaLen returns the number of delta triples visible to the snapshot.
func (sn *Snapshot) DeltaLen() int { return sn.v.delta.size() }

// TermDict returns the layered dictionary view (base + extension).
func (sn *Snapshot) TermDict() store.TermSource { return sn.terms }

// Len returns the snapshot's triple count (base + delta, disjoint).
func (sn *Snapshot) Len() int { return sn.v.base.Len() + sn.v.delta.size() }

// Triples returns the full dataset in SPO component order, merging base
// and delta on first use and caching the result for the snapshot's
// lifetime. Callers must not mutate the slice.
func (sn *Snapshot) Triples() []store.EncTriple {
	sn.triplesOnce.Do(func() {
		if sn.v.delta.size() == 0 {
			sn.triples = sn.v.base.Triples()
			return
		}
		sn.triples = store.MergeRuns(sn.v.base.Triples(), sn.v.delta.runs[store.OrderSPO])
	})
	return sn.triples
}

// RangeIn returns the range matching the pattern within one index
// ordering, with the store's prefix/residual semantics. It copies
// nothing: the base's directory-located rows are the range's Rows and
// the delta's matching rows its Delta, two disjoint runs the engine
// reads in merged order through a store.Cursor. A range the delta does
// not touch is the base range alone, and one only the delta touches is
// the delta's rows as Rows.
func (sn *Snapshot) RangeIn(ord store.Order, sub, pred, obj store.ID) store.IndexRange {
	br := sn.v.base.RangeIn(ord, sub, pred, obj)
	if sn.v.delta.size() == 0 {
		return br
	}
	dr := sn.v.delta.rangeIn(ord, sub, pred, obj)
	if len(br.Rows) == 0 {
		return dr
	}
	br.Delta = dr.Rows
	return br
}

// Range returns the index range matching the pattern under the ordering
// ChooseOrder selects.
func (sn *Snapshot) Range(sub, pred, obj store.ID) store.IndexRange {
	return sn.RangeIn(store.ChooseOrder(sub != store.NoID, pred != store.NoID, obj != store.NoID), sub, pred, obj)
}

// Iterate streams the triples matching the pattern across base and
// delta in index order.
func (sn *Snapshot) Iterate(sub, pred, obj store.ID) *store.Iterator {
	return sn.Range(sub, pred, obj).Iterator()
}

// Count returns the number of matching triples; base and delta are
// disjoint, so their counts add exactly.
func (sn *Snapshot) Count(sub, pred, obj store.ID) int {
	n := sn.v.base.Count(sub, pred, obj)
	if sn.v.delta.size() > 0 {
		n += sn.v.delta.count(sub, pred, obj)
	}
	return n
}

// Optimizer statistics. Predicate cardinalities are exact (base plus
// the delta's per-predicate counts); distinct-count statistics come
// from the frozen base — deltas are bounded by the merge policy, so the
// drift the estimator sees is small, and the merge refreshes them.

// PredCardinality returns the number of triples with predicate p.
func (sn *Snapshot) PredCardinality(p store.ID) int {
	return sn.v.base.PredCardinality(p) + sn.v.delta.predCount[p]
}

// DistinctSubjects estimates the distinct subjects under predicate p.
func (sn *Snapshot) DistinctSubjects(p store.ID) int {
	n := sn.v.base.DistinctSubjects(p)
	if n == 0 && sn.v.delta.predCount[p] > 0 {
		// Predicate only the delta has seen: assume subjects are
		// distinct, the conservative high-selectivity guess.
		n = sn.v.delta.predCount[p]
	}
	return n
}

// DistinctObjects estimates the distinct objects under predicate p.
func (sn *Snapshot) DistinctObjects(p store.ID) int {
	n := sn.v.base.DistinctObjects(p)
	if n == 0 && sn.v.delta.predCount[p] > 0 {
		n = sn.v.delta.predCount[p]
	}
	return n
}

// TotalDistinctSubjects estimates the distinct subjects overall.
func (sn *Snapshot) TotalDistinctSubjects() int { return sn.v.base.TotalDistinctSubjects() }

// TotalDistinctObjects estimates the distinct objects overall.
func (sn *Snapshot) TotalDistinctObjects() int { return sn.v.base.TotalDistinctObjects() }

// DistinctPredicates returns the number of distinct predicates.
func (sn *Snapshot) DistinctPredicates() int {
	n := sn.v.base.DistinctPredicates()
	for p := range sn.v.delta.predCount {
		if sn.v.base.PredCardinality(p) == 0 {
			n++
		}
	}
	return n
}

var _ store.Reader = (*Snapshot)(nil)

// snapDict is the layered dictionary a snapshot resolves terms in: the
// frozen base vocabulary plus the immutable extension captured with the
// version. Term i of the extension has ID base.Len()+i+1 — IDs are
// global across generations and never renumbered.
type snapDict struct {
	base   *store.Dict
	terms  []rdf.Term
	lookup *termLookup
}

// Term resolves an ID to its term.
func (d snapDict) Term(id store.ID) rdf.Term {
	if int(id) <= d.base.Len() {
		return d.base.Term(id)
	}
	return d.terms[int(id)-d.base.Len()-1]
}

// Lookup returns the ID for t without interning. The extension lookup
// is shared with later versions of the generation, so an ID past this
// version's vocabulary is a term committed after the snapshot: absent.
func (d snapDict) Lookup(t rdf.Term) (store.ID, bool) {
	if id, ok := d.base.Lookup(t); ok {
		return id, true
	}
	if id, ok := d.lookup.get(t); ok && int(id) <= d.Len() {
		return id, true
	}
	return store.NoID, false
}

// Len is the vocabulary size: IDs 1..Len are resolvable.
func (d snapDict) Len() int { return d.base.Len() + len(d.terms) }

var _ store.TermSource = snapDict{}
