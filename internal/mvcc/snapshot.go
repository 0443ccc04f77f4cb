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
// store.Cursor without a copy. Its optimizer statistics are
// its version's, computed once when the version was published. A
// Snapshot is immutable and safe for concurrent use; it observes no
// commit made after it was taken, which is the per-query consistency
// guarantee — a query never sees half of a batch.
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

// Stats returns the optimizer statistics of the snapshot's version:
// the base generation's with the delta's predicate counts added (see
// store.Stats.WithDelta).
func (sn *Snapshot) Stats() *store.Stats { return sn.v.stats }

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
