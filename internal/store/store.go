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
// indexes, then query. Freeze deduplicates (RDF graphs are sets).
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

	// stats are read off the sorted indexes (see seal).
	stats Stats
}

// New returns an empty store with a fresh dictionary.
func New() *Store {
	return &Store{dict: NewDict()}
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
// are sharded across GOMAXPROCS workers (see parallel.go); Freeze then
// numbers the terms in Compare order, so one document loads to the same
// IDs, indexes and snapshot bytes however its parse was scheduled.
func (s *Store) Load(r io.Reader) (int, error) {
	n, err := s.Ingest(r)
	if err != nil {
		return n, err
	}
	s.Freeze()
	return n, nil
}

// Freeze numbers the dictionary canonically (base IDs in rdf.Term.Compare
// order, see Dict.canonicalize), renumbers the triples into the three
// index orders, sorts and deduplicates the three indexes concurrently,
// and seals the store (see seal). Calling Freeze twice is a no-op.
func (s *Store) Freeze() {
	if s.frozen {
		return
	}
	renum := s.dict.canonicalize()
	n := len(s.triples)
	idx := [3][]EncTriple{s.triples, make([]EncTriple, n), make([]EncTriple, n)}
	for i, t := range s.triples {
		t = EncTriple{renum[t[0]], renum[t[1]], renum[t[2]]}
		for ord := range idx {
			idx[ord][i] = Order(ord).Permute(t)
		}
	}
	eachOrder(func(ord Order) {
		sortTriples(idx[ord])
		s.indexes[ord] = dedup(idx[ord])
	})
	s.seal()
}

// Merge builds the frozen store holding base's triples plus a delta's,
// given as runs: runs[ord] holds the delta in ord's component order,
// sorted by CompareEnc, deduplicated, and disjoint from base. Nothing is
// sorted: per order, one linear pass merges base's index with the run,
// and the merged store is sealed like a frozen one (see seal). No ID
// changes: the result equals Freeze over the union, byte for byte, when
// the union's terms are already numbered in Compare order.
//
// The result shares base's dictionary, which is not extended: the
// delta's rows may carry IDs past Dict().Len(). Those belong to the
// MVCC store's dictionary extension (package mvcc), which appends above
// the canonically numbered base and is never renumbered. Only a
// snapshot's layered dictionary resolves them; a merged store is read
// through an MVCC snapshot, never on its own.
func Merge(base *Store, runs [3][]EncTriple) *Store {
	if !base.frozen {
		panic("store: Merge into an unfrozen store")
	}
	s := &Store{dict: base.dict}
	eachOrder(func(ord Order) {
		s.indexes[ord] = MergeRuns(base.indexes[ord], runs[ord])
	})
	s.seal()
	return s
}

// seal derives everything a frozen store keeps beside its three sorted
// indexes, and marks it frozen. Freeze, Merge and Rehydrate all end
// here, so the three builders agree by construction. Per order, in its
// own goroutine, seal builds the order's leading-ID directory and reads
// that order's statistics off the index:
//
//   - SPO: its (s,p) prefixes are each predicate's distinct subjects,
//     its leading IDs the distinct subjects;
//   - POS: its directory's runs are the predicate counts, its (p,o)
//     prefixes each predicate's distinct objects;
//   - OSP: its leading IDs are the distinct objects.
func (s *Store) seal() {
	eachOrder(func(ord Order) {
		idx := s.indexes[ord]
		dir := buildDir(idx)
		s.dirs[ord] = dir
		switch ord {
		case OrderSPO:
			s.stats.subjects = countPairs(idx, 1)
			s.stats.totalSubjects = countLeads(dir)
		case OrderPOS:
			s.stats.triples = make(map[ID]int)
			for p := 1; p+1 < len(dir); p++ {
				if n := int(dir[p+1] - dir[p]); n > 0 {
					s.stats.triples[ID(p)] = n
				}
			}
			s.stats.objects = countPairs(idx, 0)
		case OrderOSP:
			s.stats.totalObjects = countLeads(dir)
		}
	})
	s.triples = s.indexes[OrderSPO]
	s.frozen = true
}

// eachOrder runs f for the three orders, each in its own goroutine, and
// waits for all three.
func eachOrder(f func(Order)) {
	var wg sync.WaitGroup
	for _, ord := range []Order{OrderSPO, OrderPOS, OrderOSP} {
		ord := ord
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(ord)
		}()
	}
	wg.Wait()
}

// countPairs counts, per predicate, the distinct two-component prefixes
// of a sorted index: (s,p) prefixes in SPO order are a predicate's
// distinct subjects, (p,o) prefixes in POS order its distinct objects.
// pred is the predicate's position in the prefix.
func countPairs(rows []EncTriple, pred int) map[ID]int {
	out := make(map[ID]int)
	for i, t := range rows {
		if i == 0 || t[0] != rows[i-1][0] || t[1] != rows[i-1][1] {
			out[t[pred]]++
		}
	}
	return out
}

// countLeads counts the IDs that lead at least one row of an index,
// from its leading-ID directory.
func countLeads(dir []uint32) int {
	n := 0
	for id := 0; id+1 < len(dir); id++ {
		if dir[id+1] > dir[id] {
			n++
		}
	}
	return n
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

// Frozen reports whether Freeze has been called.
func (s *Store) Frozen() bool { return s.frozen }

// Len returns the number of (distinct, after Freeze) triples.
func (s *Store) Len() int { return len(s.triples) }

func sortTriples(ts []EncTriple) {
	slices.SortFunc(ts, cmpTriple)
}

// SortEncTriples sorts encoded triples lexicographically by component —
// valid for rows of any one component order. Exported for the MVCC
// delta index, whose sorted runs use the store's comparison.
func SortEncTriples(ts []EncTriple) { sortTriples(ts) }

// MergeRuns merges two disjoint runs sorted by CompareEnc into one
// sorted slice in one linear pass. When either run is empty it returns
// the other one, not a copy.
func MergeRuns(a, b []EncTriple) []EncTriple {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]EncTriple, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if cmpTriple(a[i], b[j]) <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

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

// Frozen-store structure access for the snapshot subsystem.

// Index exposes one of the frozen store's sorted indexes; rows are in
// the order's component order. Callers must not mutate the slice.
func (s *Store) Index(o Order) []EncTriple {
	if !s.frozen {
		panic("store: Index before Freeze")
	}
	return s.indexes[o]
}

// Rehydrate constructs a frozen store directly from its frozen
// representation — the dictionary and the three sorted indexes, each in
// its own component order — without re-sorting or re-deduplicating. It
// is the fast path behind snapshot loading.
//
// The indexes are validated structurally in cheap O(n) passes, one
// goroutine per order: they must be equal-length, strictly sorted in
// their component order, and reference only dictionary IDs. The store
// is then sealed like a frozen one (see seal), which derives the
// directories and every statistic from the indexes.
func Rehydrate(dict *Dict, indexes [3][]EncTriple) (*Store, error) {
	if dict == nil {
		return nil, fmt.Errorf("store: rehydrate without a dictionary")
	}
	n := len(indexes[OrderSPO])
	if len(indexes[OrderPOS]) != n || len(indexes[OrderOSP]) != n {
		return nil, fmt.Errorf("store: rehydrate index lengths differ: SPO=%d POS=%d OSP=%d",
			n, len(indexes[OrderPOS]), len(indexes[OrderOSP]))
	}
	maxID := ID(dict.Len())
	var errs [3]error
	eachOrder(func(ord Order) {
		errs[ord] = checkIndex(indexes[ord], ord, maxID)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s := &Store{dict: dict, indexes: indexes}
	s.seal()
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
