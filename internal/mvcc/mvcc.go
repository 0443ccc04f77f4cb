// Package mvcc turns the frozen, sorted-array store into a multi-version
// generational store that serves concurrent readers while writers ingest
// insert batches — the subsystem behind the mixed-update workloads.
//
// The design follows RDF-3X's differential index. The current dataset
// version is one immutable value: a frozen base generation (a plain
// *store.Store), a small delta index holding every triple inserted since
// the base froze (three sorted runs in the same SPO/POS/OSP component
// orders), and a dictionary extension for terms the loaded store lacks.
// Writers build the next version under the store's writer mutex and
// publish it with one atomic pointer swap; a commit is therefore all or
// nothing — no reader ever observes half of a batch. Readers acquire an
// epoch-pinned Snapshot (an atomic load plus a refcount) and query it
// through the same store.Reader surface the engine runs on: every range
// is the base's directory-located rows plus the delta's, two runs the
// engine reads in merged order without copying either.
//
// A background merger keeps the delta small: when it crosses the merge
// policy's threshold, the merger folds the delta into a new frozen
// generation off the write path (store.Merge: one linear merge per
// index, then the statistics read off the merged indexes) and
// atomically swaps it in; batches committed during the merge simply
// remain in the next version's delta. Generations share one dictionary: the loaded one
// never changes, and the extension carries over whole, so a merge
// copies no term. Old snapshots keep their pinned
// version until released — epoch refcounts make the drain observable in
// /stats, and the garbage collector reclaims retired generations once
// the last snapshot closes.
package mvcc

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// version is one immutable dataset version. Readers hold a version
// pointer for the lifetime of a snapshot; writers never modify a
// published version, they publish a successor.
type version struct {
	// gen numbers the base generation, starting at 1; a background
	// merge increments it.
	gen uint64
	// base is the frozen generation.
	base *store.Store
	// delta indexes the triples inserted since base froze.
	delta *deltaIndex
	// terms extends the loaded dictionary, which every generation's
	// base shares: terms[i] has ID baseTerms+i+1, where baseTerms is
	// base.Dict().Len(). Successive versions, across generations too,
	// share the slice's backing array (the single writer appends;
	// readers only index below their captured length).
	terms []rdf.Term
	// lookup resolves extension terms to IDs. Every version shares it,
	// and it may hold terms later versions added; readers accept only
	// IDs within their own vocabulary (snapDict).
	lookup *termLookup
	// refs counts snapshots currently pinning this version — the epoch
	// refcount that makes snapshot draining observable.
	refs atomic.Int64
}

// termLookup resolves the extension's terms to IDs. All versions share
// it, so neither a commit nor a merge copies the map. A commit adds its
// new terms in place under the lock, and a reader, which looks up only
// a query's constants, takes the read lock. IDs are issued in order,
// so a reader tells the terms of later commits by an ID past its own
// vocabulary length.
type termLookup struct {
	mu  sync.RWMutex
	ids map[rdf.Term]store.ID
}

func newTermLookup(n int) *termLookup {
	return &termLookup{ids: make(map[rdf.Term]store.ID, n)}
}

func (l *termLookup) get(t rdf.Term) (store.ID, bool) {
	l.mu.RLock()
	id, ok := l.ids[t]
	l.mu.RUnlock()
	return id, ok
}

func (l *termLookup) add(t rdf.Term, id store.ID) {
	l.mu.Lock()
	l.ids[t] = id
	l.mu.Unlock()
}

// MergePolicy controls when the background merger folds the delta into
// a new frozen generation.
type MergePolicy struct {
	// MaxDeltaTriples triggers a merge once the delta holds at least
	// this many triples; 0 picks a default of max(4096, base/8).
	MaxDeltaTriples int
	// Disabled turns automatic merging off entirely; tests and
	// single-shot tools drive MergeNow themselves.
	Disabled bool
}

// threshold resolves the effective trigger for a base of n triples.
func (p MergePolicy) threshold(n int) int {
	if p.MaxDeltaTriples > 0 {
		return p.MaxDeltaTriples
	}
	return max(4096, n/8)
}

// Store is the concurrent, multi-version store: an atomic pointer to
// the current version, a writer mutex serializing commits and merge
// installs, and the background merger's lifecycle state. All methods
// are safe for concurrent use.
type Store struct {
	cur    atomic.Pointer[version]
	mu     sync.Mutex // writer mutex: Apply commits and merge installs
	policy MergePolicy

	merging atomic.Bool    // one background merge at a time
	closed  atomic.Bool    // Close called: no new merges start
	wg      sync.WaitGroup // joins the merger goroutine (Close waits)

	active atomic.Int64  // currently-open snapshots across all versions
	merges atomic.Uint64 // completed background+manual merges

	// datatypes holds one copy of each datatype IRI the extension's
	// literals carry, so that they share it (guarded by mu).
	datatypes map[string]string

	// Logf, when set before first use, receives one line per completed
	// merge.
	Logf func(format string, args ...any)
}

// New wraps a loaded store as generation 1 of a multi-version store.
// The base is frozen defensively and must not be mutated afterwards —
// the MVCC store owns it from here on.
//
// sp2b:locks=write the defensive Freeze writes the base store; New is a
// construction-time transfer of ownership, callers must not share the
// base afterwards
func New(base *store.Store, policy MergePolicy) *Store {
	base.Freeze()
	s := &Store{policy: policy}
	v := &version{
		gen:    1,
		base:   base,
		delta:  &deltaIndex{predCount: map[store.ID]int{}},
		lookup: newTermLookup(0),
	}
	s.cur.Store(v)
	publishGauges(v)
	return s
}

// Close stops accepting merge triggers and waits for any in-flight
// background merge to finish. Apply and Snapshot remain usable (the
// delta simply stops being compacted); calling Close twice is a no-op.
func (s *Store) Close() {
	s.closed.Store(true)
	s.wg.Wait()
}

// Len returns the current version's triple count (base + delta).
func (s *Store) Len() int {
	v := s.cur.Load()
	return v.base.Len() + v.delta.size()
}

// Apply commits one insert batch: terms are interned through the delta
// dictionary layered over the frozen one, triples the dataset already
// holds are dropped (RDF graphs are sets), and the new version is
// published atomically — concurrent snapshots see either none or all of
// the batch. It returns the number of triples actually inserted and
// never blocks readers: the writer mutex is contended only by other
// writers and by a finishing merge.
//
// sp2b:mutates-store publishes the next version under s.mu
func (s *Store) Apply(batch []rdf.Triple) int {
	s.mu.Lock()
	v := s.cur.Load()

	terms, lookup := v.terms, v.lookup
	baseDict := v.base.Dict()
	baseTerms := store.ID(baseDict.Len())
	intern := func(t rdf.Term) store.ID {
		if id, ok := baseDict.Lookup(t); ok {
			return id
		}
		if id, ok := lookup.get(t); ok {
			return id
		}
		// A new term. Its strings may be substrings of the request line
		// it was parsed from: copied, they stop pinning that line for
		// the store's life.
		t = rdf.Term{Kind: t.Kind, Value: strings.Clone(t.Value), Datatype: s.datatype(t.Datatype), Lang: strings.Clone(t.Lang)}
		// Snapshots of earlier versions may see it in the shared
		// lookup, but its ID is past their vocabulary.
		terms = append(terms, t)
		id := baseTerms + store.ID(len(terms))
		lookup.add(t, id)
		return id
	}

	enc := make([]store.EncTriple, 0, len(batch))
	for _, t := range batch {
		enc = append(enc, store.EncTriple{intern(t.S), intern(t.P), intern(t.O)})
	}
	store.SortEncTriples(enc)
	kept := enc[:0]
	var prev store.EncTriple
	for i, t := range enc {
		if i > 0 && t == prev {
			continue // duplicate within the batch
		}
		prev = t
		if v.base.Count(t[0], t[1], t[2]) > 0 || v.delta.contains(t) {
			continue // already in the dataset
		}
		kept = append(kept, t)
	}
	if len(kept) == 0 {
		// Nothing inserted (a triple with a new term is always new):
		// the current version already describes this state.
		s.mu.Unlock()
		return 0
	}

	next := &version{
		gen:    v.gen,
		base:   v.base,
		delta:  v.delta.extend(kept),
		terms:  terms,
		lookup: lookup,
	}
	s.cur.Store(next)
	s.mu.Unlock()
	publishGauges(next)
	mCommits.Inc()
	mCommitBatch.Observe(float64(len(kept)))

	s.maybeMerge(next)
	return len(kept)
}

// datatype returns the store's copy of a datatype IRI. Called under
// s.mu.
func (s *Store) datatype(dt string) string {
	if dt == "" {
		return ""
	}
	if c, ok := s.datatypes[dt]; ok {
		return c
	}
	if s.datatypes == nil {
		s.datatypes = make(map[string]string)
	}
	c := strings.Clone(dt)
	s.datatypes[c] = c
	return c
}

// maybeMerge starts the background merger when the delta crossed the
// policy threshold and no merge is running.
func (s *Store) maybeMerge(v *version) {
	if s.policy.Disabled || s.closed.Load() {
		return
	}
	if v.delta.size() < s.policy.threshold(v.base.Len()) {
		return
	}
	if !s.merging.CompareAndSwap(false, true) {
		return // a merge is already compacting
	}
	s.wg.Add(1)
	// sp2b:leaks=ok the merger is tracked in s.wg, which Close and MergeNow join
	go func() {
		defer s.wg.Done()
		defer s.merging.Store(false)
		s.merge()
	}()
}

// MergeNow synchronously compacts the current delta into a new frozen
// generation, waiting out any background merge first. Tests and tools
// use it for deterministic generation boundaries; the serving path only
// ever merges in the background.
func (s *Store) MergeNow() {
	for {
		if s.merging.CompareAndSwap(false, true) {
			break
		}
		s.wg.Wait() // a background merge holds the slot; let it finish
	}
	defer s.merging.Store(false)
	if s.cur.Load().delta.size() > 0 {
		s.merge()
	}
}

// merge compacts the version current at entry into a new frozen
// generation and installs it. It runs off the write path: the captured
// version is immutable, so building the new generation needs no lock;
// only the install does. Batches committed while the merge ran are
// carried over into the new version's delta.
//
// sp2b:mutates-store installs the merged generation under s.mu
func (s *Store) merge() {
	v := s.cur.Load()
	if v.delta.size() == 0 {
		return
	}
	start := time.Now()
	merged := store.Merge(v.base, v.delta.runs)

	s.mu.Lock()
	cur := s.cur.Load()
	// Everything up to the captured version is in the new base; the
	// batches committed since remain as the new delta. The dictionary
	// extension carries over whole: the merged base shares the loaded
	// dictionary, so the extension's IDs are unchanged.
	next := &version{
		gen:    v.gen + 1,
		base:   merged,
		delta:  rebuildDelta(cur.delta.batches[len(v.delta.batches):]),
		terms:  cur.terms,
		lookup: cur.lookup,
	}
	s.cur.Store(next)
	s.mu.Unlock()
	s.merges.Add(1)
	publishGauges(next)
	mMerges.Inc()
	mMergeSeconds.Observe(time.Since(start).Seconds())

	if s.Logf != nil {
		s.Logf("mvcc: merged generation %d: %d triples (+%d carried in delta)",
			next.gen, merged.Len(), next.delta.size())
	}
	// The carried-over delta may itself already exceed the threshold
	// (a fast writer); re-arm rather than wait for the next Apply.
	s.maybeMerge(s.cur.Load())
}

// Stats describes the store's current multi-version state.
type Stats struct {
	// Generation is the base generation number (starts at 1).
	Generation uint64 `json:"generation"`
	// BaseTriples and DeltaTriples split the dataset between the frozen
	// base and the delta index.
	BaseTriples  int `json:"base_triples"`
	DeltaTriples int `json:"delta_triples"`
	// DeltaBatches is the number of uncompacted committed batches.
	DeltaBatches int `json:"delta_batches"`
	// Terms is the total vocabulary size (base + delta extension).
	Terms int `json:"terms"`
	// ActiveSnapshots is the number of open snapshots across versions.
	ActiveSnapshots int64 `json:"active_snapshots"`
	// Merges counts completed generation merges.
	Merges uint64 `json:"merges"`
}

// Stats returns the current multi-version state.
func (s *Store) Stats() Stats {
	v := s.cur.Load()
	return Stats{
		Generation:      v.gen,
		BaseTriples:     v.base.Len(),
		DeltaTriples:    v.delta.size(),
		DeltaBatches:    len(v.delta.batches),
		Terms:           v.base.Dict().Len() + len(v.terms),
		ActiveSnapshots: s.active.Load(),
		Merges:          s.merges.Load(),
	}
}

// Footprint extends the base generation's footprint with the
// generational breakdown — the numbers /stats and sp2bbench -stats
// report for a live deployment.
func (s *Store) Footprint() store.Footprint {
	v := s.cur.Load()
	f := v.base.Footprint()
	f.Generation = v.gen
	f.BaseTriples = v.base.Len()
	f.DeltaTriples = v.delta.size()
	f.DeltaBytes = v.delta.bytes()
	f.Triples = f.BaseTriples + f.DeltaTriples
	f.Terms += len(v.terms)
	for _, t := range v.terms {
		f.TermBytes += int64(len(t.Value) + len(t.Datatype) + len(t.Lang))
	}
	return f
}
