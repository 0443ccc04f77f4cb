package store

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"sp2bench/internal/rdf"
)

// EncTriple is a dictionary-encoded triple in subject/predicate/object
// order.
type EncTriple [3]ID

// Order identifies one of the three component orderings the store indexes.
type Order uint8

// The three index orderings. Together they answer every bound/unbound
// combination of a triple pattern with one contiguous range, found
// through the index's leading-ID directory (see Store.RangeIn):
//
//	S?? SP? SPO -> SPO;  ?P? ?PO -> POS;  ??O S?O -> OSP;  ??? -> scan.
const (
	OrderSPO Order = iota
	OrderPOS
	OrderOSP
)

func (o Order) String() string {
	switch o {
	case OrderSPO:
		return "SPO"
	case OrderPOS:
		return "POS"
	default:
		return "OSP"
	}
}

// Permute maps an SPO-ordered triple into the index's component order.
// Exported for the MVCC delta index, which keeps its sorted runs in the
// same three component orders as the frozen indexes.
func (o Order) Permute(t EncTriple) EncTriple {
	switch o {
	case OrderSPO:
		return t
	case OrderPOS:
		return EncTriple{t[1], t[2], t[0]}
	default: // OrderOSP
		return EncTriple{t[2], t[0], t[1]}
	}
}

// Unpermute maps an index-ordered triple back to SPO order.
func (o Order) Unpermute(t EncTriple) EncTriple {
	switch o {
	case OrderSPO:
		return t
	case OrderPOS:
		return EncTriple{t[2], t[0], t[1]}
	default: // OrderOSP
		return EncTriple{t[1], t[2], t[0]}
	}
}

// Store is an immutable-after-Freeze, dictionary-encoded triple store.
//
// Usage: Add/AddTriple while loading, then Freeze once to build the sorted
// indexes, then query. Freeze deduplicates (RDF graphs are sets). The
// unindexed triple slice remains available for engines that model
// index-free scanning.
type Store struct {
	dict    *Dict
	triples []EncTriple // SPO order after Freeze; insertion order before
	indexes [3][]EncTriple
	// dirs[ord] is ord's leading-ID directory: dirs[ord][id] is the
	// first row of indexes[ord] whose leading component is >= id, so the
	// run of rows led by id is indexes[ord][dirs[ord][id]:dirs[ord][id+1]].
	// It has one entry per ID up to the index's largest leading ID, plus
	// one past it (see buildDir).
	dirs   [3][]uint32
	frozen bool

	predCount  map[ID]int // triples per predicate (statistics)
	predSubj   map[ID]map[ID]struct{}
	predObj    map[ID]map[ID]struct{}
	distinctSP map[ID]int // distinct subjects per predicate
	distinctOP map[ID]int // distinct objects per predicate

	totalDistinctSubj int
	totalDistinctObj  int
}

// New returns an empty store with a fresh dictionary.
func New() *Store {
	return &Store{
		dict:      NewDict(),
		predCount: make(map[ID]int),
		predSubj:  make(map[ID]map[ID]struct{}),
		predObj:   make(map[ID]map[ID]struct{}),
	}
}

// NewWithDict returns an empty store that adopts an existing
// dictionary: triples added with AddEncoded may reference any ID the
// dictionary has issued. The MVCC merger uses it to build the next
// frozen generation from a flattened base+delta vocabulary without
// re-interning a single term.
func NewWithDict(d *Dict) *Store {
	s := New()
	s.dict = d
	return s
}

// Dict exposes the store's dictionary.
func (s *Store) Dict() *Dict { return s.dict }

// Add interns and stores one triple given as terms.
func (s *Store) Add(t rdf.Triple) {
	s.AddEncoded(EncTriple{
		s.dict.Intern(t.S),
		s.dict.Intern(t.P),
		s.dict.Intern(t.O),
	})
}

// AddEncoded stores an already-encoded triple. The IDs must come from this
// store's dictionary.
//
// sp2b:mutates-store loading-phase append; panics if the store is frozen
func (s *Store) AddEncoded(t EncTriple) {
	if s.frozen {
		panic("store: Add after Freeze")
	}
	s.triples = append(s.triples, t)
}

// AddEncodedAll bulk-appends already-encoded triples — AddEncoded for a
// whole batch, one grow instead of len(ts).
//
// sp2b:mutates-store loading-phase bulk append; panics if the store is frozen
func (s *Store) AddEncodedAll(ts []EncTriple) {
	if s.frozen {
		panic("store: Add after Freeze")
	}
	s.triples = append(s.triples, ts...)
}

// Load reads every triple from an N-Triples reader into the store and
// freezes it. It returns the number of parsed statements, which can
// exceed Len() when the input contains duplicates. Parsing and interning
// are sharded across GOMAXPROCS workers (see parallel.go); dictionary ID
// assignment is therefore scheduling-dependent, but IDs are opaque, so
// every observable query behavior is unaffected.
func (s *Store) Load(r io.Reader) (int, error) {
	n, err := s.Ingest(r)
	if err != nil {
		return n, err
	}
	s.Freeze()
	return n, nil
}

// Freeze deduplicates the graph, builds the three sorted indexes and the
// per-predicate statistics, and makes the store queryable. The two
// permuted indexes and the statistics are built concurrently. Calling
// Freeze twice is a no-op.
func (s *Store) Freeze() {
	if s.frozen {
		return
	}
	sortTriples(s.triples)
	s.triples = dedup(s.triples)

	var wg sync.WaitGroup
	for _, ord := range []Order{OrderPOS, OrderOSP} {
		ord := ord
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx := make([]EncTriple, len(s.triples))
			for i, t := range s.triples {
				idx[i] = ord.Permute(t)
			}
			sortTriples(idx)
			s.indexes[ord] = idx
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.buildStats()
	}()
	wg.Wait()
	s.indexes[OrderSPO] = s.triples
	for ord, idx := range s.indexes {
		s.dirs[ord] = buildDir(idx)
	}

	// Global distinct counts come free from the sorted indexes: count the
	// leading-component transitions.
	s.totalDistinctSubj = leadingDistinct(s.indexes[OrderSPO])
	s.totalDistinctObj = leadingDistinct(s.indexes[OrderOSP])
	s.frozen = true
}

// buildStats derives the per-predicate statistics from the deduplicated
// SPO-ordered triple slice.
//
// sp2b:mutates-store derived statistics, built only from inside Freeze
func (s *Store) buildStats() {
	for _, t := range s.triples {
		s.predCount[t[1]]++
		subjSet := s.predSubj[t[1]]
		if subjSet == nil {
			subjSet = make(map[ID]struct{})
			s.predSubj[t[1]] = subjSet
		}
		subjSet[t[0]] = struct{}{}
		objSet := s.predObj[t[1]]
		if objSet == nil {
			objSet = make(map[ID]struct{})
			s.predObj[t[1]] = objSet
		}
		objSet[t[2]] = struct{}{}
	}
	s.distinctSP = make(map[ID]int, len(s.predSubj))
	for p, set := range s.predSubj {
		s.distinctSP[p] = len(set)
	}
	s.distinctOP = make(map[ID]int, len(s.predObj))
	for p, set := range s.predObj {
		s.distinctOP[p] = len(set)
	}
	// The per-ID sets are only needed to compute the counts.
	s.predSubj, s.predObj = nil, nil
}

// buildDir builds a sorted index's leading-ID directory (see
// Store.dirs) in one pass: idx[n-1][0]+2 entries, the last of which is
// n. An empty index has no directory.
func buildDir(idx []EncTriple) []uint32 {
	if len(idx) == 0 {
		return nil
	}
	dir := make([]uint32, int(idx[len(idx)-1][0])+2)
	row := 0
	for id := range dir {
		for row < len(idx) && int(idx[row][0]) < id {
			row++
		}
		dir[id] = uint32(row)
	}
	return dir
}

func leadingDistinct(idx []EncTriple) int {
	n := 0
	var prev ID
	for i, t := range idx {
		if i == 0 || t[0] != prev {
			n++
			prev = t[0]
		}
	}
	return n
}

// Frozen reports whether Freeze has been called.
func (s *Store) Frozen() bool { return s.frozen }

// Len returns the number of (distinct, after Freeze) triples.
func (s *Store) Len() int { return len(s.triples) }

// Triples exposes the raw SPO-ordered triple slice. Callers must not
// mutate it. The in-memory engine iterates it directly.
func (s *Store) Triples() []EncTriple { return s.triples }

func sortTriples(ts []EncTriple) {
	slices.SortFunc(ts, cmpTriple)
}

// SortEncTriples sorts encoded triples lexicographically by component —
// valid for rows of any one component order. Exported for the MVCC
// delta index, whose sorted runs use the store's comparison.
func SortEncTriples(ts []EncTriple) { sortTriples(ts) }

// CompareEnc is the lexicographic component comparison the indexes are
// sorted by, exported for code merging index-ordered runs.
func CompareEnc(a, b EncTriple) int { return cmpTriple(a, b) }

// cmpTriple orders triples lexicographically by component. The first two
// components are packed into one uint64 comparison; profiling shows this
// and slices.SortFunc's pdqsort make index construction measurably
// faster than the previous sort.Slice + three-way branch.
func cmpTriple(a, b EncTriple) int {
	ah := uint64(a[0])<<32 | uint64(a[1])
	bh := uint64(b[0])<<32 | uint64(b[1])
	switch {
	case ah < bh:
		return -1
	case ah > bh:
		return 1
	case a[2] < b[2]:
		return -1
	case a[2] > b[2]:
		return 1
	}
	return 0
}

func dedup(ts []EncTriple) []EncTriple {
	if len(ts) == 0 {
		return ts
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// Match returns the triples (in SPO component order) matching the pattern,
// where NoID components are wildcards. The store must be frozen. The
// returned slice is always freshly built and owned by the caller; use
// Iterate to stream matches without materializing them.
func (s *Store) Match(sub, pred, obj ID) []EncTriple {
	it := s.Iterate(sub, pred, obj)
	var out []EncTriple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// Iterator yields encoded triples one at a time in index order.
type Iterator struct {
	rows  []EncTriple // index-ordered rows
	order Order
	// residual filters for components not covered by the index prefix
	filt EncTriple // in index component order; NoID = no constraint
	pos  int
}

// Next returns the next matching triple in SPO component order.
func (it *Iterator) Next() (EncTriple, bool) {
	for it.pos < len(it.rows) {
		row := it.rows[it.pos]
		it.pos++
		if (it.filt[0] == NoID || row[0] == it.filt[0]) &&
			(it.filt[1] == NoID || row[1] == it.filt[1]) &&
			(it.filt[2] == NoID || row[2] == it.filt[2]) {
			return it.order.Unpermute(row), true
		}
	}
	return EncTriple{}, false
}

// IndexRange is the sorted slice of one index matching a pattern's bound
// components: Rows are in Ord's component order, the first Lead components
// equal the pattern's constants, and Filt carries any bound component past
// the lead as a residual constraint (NoID = unconstrained). The slice
// aliases the store's index — callers must not mutate it.
//
// An IndexRange is the unit the physical-operator layer of the query
// engine works with: it can be iterated, partitioned into contiguous
// sub-ranges for parallel scans, or merged against another range that is
// sorted on the same component.
type IndexRange struct {
	Ord  Order
	Rows []EncTriple
	Lead int
	Filt EncTriple
}

// Iterator returns a fresh iterator over the range.
func (r IndexRange) Iterator() *Iterator {
	return &Iterator{rows: r.Rows, order: r.Ord, filt: r.Filt}
}

// CopyColumns decodes a run of the range directly into component
// columns: starting at physical row offset start, it visits up to max
// rows that pass the residual filter, unpermutes each into SPO
// component order, and writes the components into s, p and o (nil =
// component not wanted). It returns the number of matching rows
// written and the number of physical rows consumed, so a caller can
// resume at start+consumed. This is the vectorized scan's bulk path:
// one call fills a whole column batch without per-row iterator
// dispatch.
func (r IndexRange) CopyColumns(start, max int, s, p, o []ID) (written, consumed int) {
	dst := [3][]ID{s, p, o}
	// Map destination columns into index component order once, so the
	// row loop indexes them directly.
	var cdst [3][]ID
	for i := 0; i < 3; i++ {
		cdst[i] = dst[ordPos(r.Ord, i)]
	}
	rows := r.Rows[start:]
	noFilt := r.Filt[0] == NoID && r.Filt[1] == NoID && r.Filt[2] == NoID
	for consumed < len(rows) && written < max {
		row := rows[consumed]
		consumed++
		if !noFilt &&
			((r.Filt[0] != NoID && row[0] != r.Filt[0]) ||
				(r.Filt[1] != NoID && row[1] != r.Filt[1]) ||
				(r.Filt[2] != NoID && row[2] != r.Filt[2])) {
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

// Partition splits the range into at most parts contiguous sub-ranges of
// near-equal row counts, preserving order: concatenating the partitions'
// rows yields exactly the original range. Fewer than parts ranges are
// returned when the range has fewer rows than parts.
func (r IndexRange) Partition(parts int) []IndexRange {
	if parts < 1 {
		parts = 1
	}
	if parts > len(r.Rows) {
		parts = max(1, len(r.Rows))
	}
	out := make([]IndexRange, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * len(r.Rows) / parts
		hi := (i + 1) * len(r.Rows) / parts
		p := r
		p.Rows = r.Rows[lo:hi]
		out = append(out, p)
	}
	return out
}

// Range returns the index range matching the pattern under the index
// ChooseOrder selects; NoID components are wildcards.
func (s *Store) Range(sub, pred, obj ID) IndexRange {
	return s.RangeIn(ChooseOrder(sub != NoID, pred != NoID, obj != NoID), sub, pred, obj)
}

// RangeIn returns the range matching the pattern within one specific
// index ordering. Bound components that form a prefix in ord's component
// order narrow the range: the leading one through the index's leading-ID
// directory in O(1), the rest by a search of that lead's run only (see
// SearchRun). Bound components past the prefix become residual
// constraints. Callers pick ord for its sort order — e.g. a merge join
// asks for the index whose first post-prefix component is the join
// variable's position.
func (s *Store) RangeIn(ord Order, sub, pred, obj ID) IndexRange {
	if !s.frozen {
		panic("store: RangeIn before Freeze")
	}
	key := ord.Permute(EncTriple{sub, pred, obj})
	idx := s.indexes[ord]

	// Length of the bound prefix in index order.
	prefix := 0
	for prefix < 3 && key[prefix] != NoID {
		prefix++
	}
	lo, hi := 0, len(idx)
	if prefix > 0 {
		// An ID past the directory (larger than every leading ID, e.g. a
		// term interned after Freeze) leads no row.
		lo, hi = len(idx), len(idx)
		if dir := s.dirs[ord]; int(key[0])+1 < len(dir) {
			lo, hi = int(dir[key[0]]), int(dir[key[0]+1])
		}
		if prefix > 1 {
			l, h := SearchRun(idx[lo:hi], key, prefix)
			lo, hi = lo+l, lo+h
		}
	}
	var filt EncTriple
	for i := prefix; i < 3; i++ {
		filt[i] = key[i] // any bound component past the prefix is residual
	}
	return IndexRange{Ord: ord, Rows: idx[lo:hi], Lead: prefix, Filt: filt}
}

// Iterate returns an iterator over triples matching the pattern; NoID
// components are wildcards. It selects the index whose prefix covers the
// bound components, so every lookup is one directory-located range plus
// (for the S?O case) a residual filter.
func (s *Store) Iterate(sub, pred, obj ID) *Iterator {
	if !s.frozen {
		panic("store: Iterate before Freeze")
	}
	return s.Range(sub, pred, obj).Iterator()
}

// ChooseOrder picks the index ordering whose prefix covers the given bound
// components. Exported for the optimizer's cost model and for tests.
func ChooseOrder(sBound, pBound, oBound bool) Order {
	switch {
	case sBound: // S??, SP?, SPO, S?O
		if oBound && !pBound {
			return OrderOSP // S?O: O is the more selective lead in practice
		}
		return OrderSPO
	case pBound:
		return OrderPOS // ?P?, ?PO
	case oBound:
		return OrderOSP // ??O
	default:
		return OrderSPO // ???: full scan
	}
}

// SearchRun returns the half-open range of rows whose first prefix
// components equal key's, within rows sorted in key's component order.
// The frozen store calls it on one leading ID's run (found through the
// directory); the MVCC delta index calls it on its whole sorted runs.
func SearchRun(rows []EncTriple, key EncTriple, prefix int) (lo, hi int) {
	if prefix == 0 {
		return 0, len(rows)
	}
	cmp := func(t EncTriple) int {
		for i := 0; i < prefix; i++ {
			if t[i] != key[i] {
				if t[i] < key[i] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	lo = sort.Search(len(rows), func(i int) bool { return cmp(rows[i]) >= 0 })
	// Matching runs are mostly short (a join probe binds a subject or an
	// object): gallop from lo to bracket the run's end, then search only
	// the bracket, instead of a second search over all the rows.
	done, probe := lo, lo // rows in [lo, done) match; rows[probe] is tested next
	for step := 1; probe < len(rows) && cmp(rows[probe]) == 0; step *= 2 {
		done = probe + 1
		probe = min(done+step, len(rows))
	}
	hi = done + sort.Search(probe-done, func(i int) bool { return cmp(rows[done+i]) > 0 })
	return lo, hi
}

// Count returns the number of triples matching the pattern without
// materializing them. For prefix-covered patterns this is the length of
// the directory-located range; only a residual (S?O) constraint is
// counted row by row.
func (s *Store) Count(sub, pred, obj ID) int {
	if !s.frozen {
		panic("store: Count before Freeze")
	}
	rng := s.Range(sub, pred, obj)
	if rng.Filt == (EncTriple{}) {
		return len(rng.Rows)
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

// Statistics used by the native engine's selectivity estimator.

// PredCardinality returns the number of triples with predicate p.
func (s *Store) PredCardinality(p ID) int { return s.predCount[p] }

// DistinctSubjects returns the number of distinct subjects under p.
func (s *Store) DistinctSubjects(p ID) int { return s.distinctSP[p] }

// DistinctObjects returns the number of distinct objects under p.
func (s *Store) DistinctObjects(p ID) int { return s.distinctOP[p] }

// TotalDistinctSubjects returns the number of distinct subjects.
func (s *Store) TotalDistinctSubjects() int { return s.totalDistinctSubj }

// TotalDistinctObjects returns the number of distinct objects.
func (s *Store) TotalDistinctObjects() int { return s.totalDistinctObj }

// DistinctPredicates returns the number of distinct predicates.
func (s *Store) DistinctPredicates() int { return len(s.predCount) }

// Frozen-store structure access for the snapshot subsystem.

// Index exposes one of the frozen store's sorted indexes; rows are in
// the order's component order. Callers must not mutate the slice.
func (s *Store) Index(o Order) []EncTriple {
	if !s.frozen {
		panic("store: Index before Freeze")
	}
	return s.indexes[o]
}

// PredStat is one row of the per-predicate statistics table.
type PredStat struct {
	Pred             ID
	Count            int
	DistinctSubjects int
	DistinctObjects  int
}

// PredStats returns the per-predicate statistics sorted by predicate ID.
// The store must be frozen.
func (s *Store) PredStats() []PredStat {
	if !s.frozen {
		panic("store: PredStats before Freeze")
	}
	out := make([]PredStat, 0, len(s.predCount))
	for p, n := range s.predCount {
		out = append(out, PredStat{
			Pred:             p,
			Count:            n,
			DistinctSubjects: s.distinctSP[p],
			DistinctObjects:  s.distinctOP[p],
		})
	}
	slices.SortFunc(out, func(a, b PredStat) int {
		switch {
		case a.Pred < b.Pred:
			return -1
		case a.Pred > b.Pred:
			return 1
		}
		return 0
	})
	return out
}

// Rehydrate constructs a frozen store directly from its frozen
// representation — the dictionary, the three sorted indexes (each in its
// own component order) and the per-predicate statistics — without
// re-sorting, re-deduplicating, or re-deriving the statistics. It is the
// fast path behind snapshot loading.
//
// The inputs are validated structurally (cheap O(n) passes, no sorting):
// the indexes must be equal-length, strictly sorted in their component
// order, and reference only dictionary IDs; the statistics must name
// existing predicates and sum to the triple count. The global distinct
// counts and each index's leading-ID directory are recomputed from the
// indexes, one more O(n) pass each.
func Rehydrate(dict *Dict, indexes [3][]EncTriple, stats []PredStat) (*Store, error) {
	if dict == nil {
		return nil, fmt.Errorf("store: rehydrate without a dictionary")
	}
	n := len(indexes[OrderSPO])
	if len(indexes[OrderPOS]) != n || len(indexes[OrderOSP]) != n {
		return nil, fmt.Errorf("store: rehydrate index lengths differ: SPO=%d POS=%d OSP=%d",
			n, len(indexes[OrderPOS]), len(indexes[OrderOSP]))
	}
	maxID := ID(dict.Len())
	errs := make([]error, 3)
	var dirs [3][]uint32
	var wg sync.WaitGroup
	for _, ord := range []Order{OrderSPO, OrderPOS, OrderOSP} {
		ord := ord
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[ord] = checkIndex(indexes[ord], ord, maxID); errs[ord] == nil {
				dirs[ord] = buildDir(indexes[ord])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	s := &Store{
		dict:       dict,
		triples:    indexes[OrderSPO],
		indexes:    indexes,
		dirs:       dirs,
		predCount:  make(map[ID]int, len(stats)),
		distinctSP: make(map[ID]int, len(stats)),
		distinctOP: make(map[ID]int, len(stats)),
	}
	total := 0
	for _, ps := range stats {
		if ps.Pred == NoID || ps.Pred > maxID {
			return nil, fmt.Errorf("store: statistics reference unknown predicate %d", ps.Pred)
		}
		if _, dup := s.predCount[ps.Pred]; dup {
			return nil, fmt.Errorf("store: duplicate statistics row for predicate %d", ps.Pred)
		}
		if ps.Count <= 0 || ps.DistinctSubjects <= 0 || ps.DistinctObjects <= 0 ||
			ps.DistinctSubjects > ps.Count || ps.DistinctObjects > ps.Count {
			return nil, fmt.Errorf("store: implausible statistics row %+v", ps)
		}
		s.predCount[ps.Pred] = ps.Count
		s.distinctSP[ps.Pred] = ps.DistinctSubjects
		s.distinctOP[ps.Pred] = ps.DistinctObjects
		total += ps.Count
	}
	if total != n {
		return nil, fmt.Errorf("store: statistics cover %d triples, index has %d", total, n)
	}
	s.totalDistinctSubj = leadingDistinct(indexes[OrderSPO])
	s.totalDistinctObj = leadingDistinct(indexes[OrderOSP])
	s.frozen = true
	return s, nil
}

// checkIndex verifies an index is strictly sorted and references only
// valid dictionary IDs.
func checkIndex(idx []EncTriple, ord Order, maxID ID) error {
	var prev EncTriple
	for i, t := range idx {
		for _, c := range t {
			if c == NoID || c > maxID {
				return fmt.Errorf("store: %s index row %d references invalid ID %d (dictionary size %d)",
					ord, i, c, maxID)
			}
		}
		if i > 0 && cmpTriple(prev, t) >= 0 {
			return fmt.Errorf("store: %s index not strictly sorted at row %d", ord, i)
		}
		prev = t
	}
	return nil
}

// Footprint summarizes a store's in-memory size: the quantities the
// startup logs of sp2bserve and sp2bbench -stats report, so load-time
// and memory wins are visible at a glance.
type Footprint struct {
	// Triples is the number of distinct stored triples.
	Triples int
	// Terms is the dictionary size.
	Terms int
	// IndexBytes is the three sorted indexes' footprint (12 bytes per
	// row per index; the SPO index aliases the triple slice, so three
	// slices total are held) plus their leading-ID directories (4 bytes
	// per entry, about one entry per term per index).
	IndexBytes int64
	// TermBytes sums the dictionary's string payloads (map and header
	// overhead excluded, hence "approximate").
	TermBytes int64

	// Generational breakdown, filled by the MVCC store: which frozen
	// generation the base is, and how the triples split between the
	// immutable base and the mutable delta index. Zero for a plain
	// frozen store (Generation 0 with no delta).
	Generation   uint64
	BaseTriples  int
	DeltaTriples int
	// DeltaBytes approximates the delta index's footprint (three sorted
	// runs at 12 bytes per row, like IndexBytes).
	DeltaBytes int64
}

// Footprint computes the store's approximate memory footprint.
func (s *Store) Footprint() Footprint {
	f := Footprint{
		Triples:    len(s.triples),
		Terms:      s.dict.Len(),
		IndexBytes: 3 * int64(len(s.triples)) * int64(len(EncTriple{})) * 4,
	}
	for _, dir := range s.dirs {
		f.IndexBytes += int64(len(dir)) * 4
	}
	for _, t := range s.dict.Terms() {
		f.TermBytes += int64(len(t.Value) + len(t.Datatype) + len(t.Lang))
	}
	return f
}

func (f Footprint) String() string {
	s := fmt.Sprintf("%d triples, %d terms, ~%s indexes (%.1f B/triple) + ~%s term data",
		f.Triples, f.Terms, mib(f.IndexBytes), f.IndexBytesPerTriple(), mib(f.TermBytes))
	if f.DeltaTriples > 0 || f.Generation > 0 {
		s += fmt.Sprintf(" (gen %d: %d base + %d delta, ~%s delta runs)",
			f.Generation, f.BaseTriples, f.DeltaTriples, mib(f.DeltaBytes))
	}
	return s
}

// IndexBytesPerTriple is IndexBytes per stored triple: 36 for the three
// indexes' rows plus the directories' share.
func (f Footprint) IndexBytesPerTriple() float64 {
	return float64(f.IndexBytes) / float64(max(1, f.Triples))
}

func mib(n int64) string {
	return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
}
