package store

import (
	"maps"

	"sp2bench/internal/rdf"
)

// TermSource is the read-only dictionary surface a query engine needs:
// ID→term resolution, term→ID lookup, and the vocabulary size. *Dict
// implements it directly; the MVCC subsystem implements it with a
// layered dictionary (frozen base vocabulary plus an immutable delta
// extension) so snapshots resolve terms interned after their base
// generation froze.
type TermSource interface {
	// Term resolves an ID to its term; it panics on IDs the source has
	// never issued (programmer error, not bad input).
	Term(id ID) rdf.Term
	// Lookup returns the ID for t without interning; ok is false when
	// the term is not in the vocabulary.
	Lookup(t rdf.Term) (ID, bool)
	// Len is the vocabulary size: IDs 1..Len are resolvable.
	Len() int
}

// Reader is the read-only query surface of a triple source: everything
// the engine's compiler, optimizer, and physical operators consume. A
// frozen *Store implements it over its three sorted indexes; an
// mvcc.Snapshot implements it by pairing a frozen base generation's
// ranges with an immutable delta index's, which is what lets queries
// run against a consistent view while writers ingest new batches.
//
// RangeIn is the one method that reads triples: Range, Count and a full
// scan (RangeIn(OrderSPO, NoID, NoID, NoID), in SPO order) are built on
// it, so a wrapper that overrides RangeIn sees every range a query
// opens.
//
// All methods must be safe for concurrent use and must return stable
// results for the lifetime of the Reader: the engine assumes a Reader
// is an immutable snapshot of one dataset version.
type Reader interface {
	// TermDict returns the dictionary view the reader's IDs resolve in.
	TermDict() TermSource
	// Len returns the number of distinct triples.
	Len() int
	// RangeIn returns the range matching the pattern (NoID components
	// are wildcards) within one index ordering; callers pick the order
	// for its sort (merge joins) or let Range choose it.
	RangeIn(ord Order, sub, pred, obj ID) IndexRange
	// Stats returns the optimizer statistics of the reader's dataset
	// version, computed once when the version was built.
	Stats() *Stats
}

// Range returns the range matching the pattern under the index ordering
// ChooseOrder selects, so every lookup is one located range plus (for
// the S?O case) a residual filter.
func Range(r Reader, sub, pred, obj ID) IndexRange {
	return r.RangeIn(ChooseOrder(sub != NoID, pred != NoID, obj != NoID), sub, pred, obj)
}

// Count returns the number of triples matching the pattern without
// materializing them: the length of its range, read row by row only
// when a residual (S?O) constraint remains.
func Count(r Reader, sub, pred, obj ID) int {
	rng := Range(r, sub, pred, obj)
	if rng.Filt == (EncTriple{}) {
		return rng.Len()
	}
	n := 0
	for it := rng.Iterator(); ; n++ {
		if _, ok := it.Next(); !ok {
			return n
		}
	}
}

// Stats holds the statistics the optimizer's selectivity estimator
// reads: per predicate its triples, distinct subjects and distinct
// objects, and the distinct subjects and objects overall. A sealed
// store's are exact; a version layering a delta over a base estimates
// its distinct counts (see WithDelta). A Stats value belongs to one
// dataset version and is shared by all its readers; its fields are
// unexported, so none of them can write into it.
//
// Each field is written by one order's pass in seal: subjects and
// totalSubjects by SPO's, triples and objects by POS's, totalObjects
// by OSP's.
type Stats struct {
	triples  map[ID]int // triples per predicate
	subjects map[ID]int // distinct subjects per predicate
	objects  map[ID]int // distinct objects per predicate

	totalSubjects int
	totalObjects  int
}

// PredCardinality returns the number of triples with predicate p.
func (st *Stats) PredCardinality(p ID) int { return st.triples[p] }

// DistinctSubjects returns the number of distinct subjects under p.
func (st *Stats) DistinctSubjects(p ID) int { return st.subjects[p] }

// DistinctObjects returns the number of distinct objects under p.
func (st *Stats) DistinctObjects(p ID) int { return st.objects[p] }

// TotalDistinctSubjects returns the number of distinct subjects.
func (st *Stats) TotalDistinctSubjects() int { return st.totalSubjects }

// TotalDistinctObjects returns the number of distinct objects.
func (st *Stats) TotalDistinctObjects() int { return st.totalObjects }

// DistinctPredicates returns the number of distinct predicates.
func (st *Stats) DistinctPredicates() int { return len(st.triples) }

// WithDelta returns the statistics of st's dataset plus a delta of
// triples disjoint from it, given as the delta's POS-ordered run. The
// result is an estimate, kept cheap enough to compute at every commit:
// predicate cardinalities are exact (base plus delta), a predicate only
// the delta holds gets its delta count as both distinct counts (the
// conservative high-selectivity guess), and every other distinct count
// and both totals are st's; a merge folds the delta in and refreshes
// them. st is not modified; with an empty delta, st itself is returned.
func (st *Stats) WithDelta(pos []EncTriple) *Stats {
	if len(pos) == 0 {
		return st
	}
	out := &Stats{
		triples:       maps.Clone(st.triples),
		subjects:      maps.Clone(st.subjects),
		objects:       maps.Clone(st.objects),
		totalSubjects: st.totalSubjects,
		totalObjects:  st.totalObjects,
	}
	for len(pos) > 0 {
		p, n := pos[0][0], 1
		for n < len(pos) && pos[n][0] == p {
			n++
		}
		if out.triples[p] == 0 {
			out.subjects[p], out.objects[p] = n, n
		}
		out.triples[p] += n
		pos = pos[n:]
	}
	return out
}

// TermDict returns the store's dictionary as a TermSource, satisfying
// Reader (Dict returns the concrete type for writers and the snapshot
// codec).
func (s *Store) TermDict() TermSource { return s.dict }

// Stats returns the frozen store's statistics, read off its sorted
// indexes when it was sealed.
func (s *Store) Stats() *Stats { return &s.stats }

var _ Reader = (*Store)(nil)
