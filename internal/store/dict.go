// Package store implements the physical storage substrate of the
// benchmark: a dictionary-encoded, in-memory triple store with sorted
// SPO/POS/OSP indexes and per-predicate statistics.
//
// This is the classic "triple table" design the paper's storage-scheme
// discussion references: terms are interned to dense uint32 IDs, triples
// are [3]uint32, and each index is a sorted slice answering prefix range
// queries: a dense leading-ID directory locates a bound leading
// component's run in O(1), and only a longer prefix searches within that
// run. The engine reads every triple pattern as one index's range.
package store

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"sp2bench/internal/rdf"
)

// ID is a dense dictionary identifier for an interned RDF term.
// IDs start at 1; 0 is reserved as "no term" (used for unbound pattern
// positions).
//
// ID is a defined type, not an alias for uint32: equality between two
// IDs is *term identity* within one dictionary, which is strictly finer
// than SPARQL value equality ("1" and "01" are distinct terms but equal
// values). Code on a value-semantics path (FILTER ?a = ?b, hash keys
// for value joins) must compare resolved terms via algebra.EqualTerms
// or bucket by a canonical key (engine.valueKey), never by ID — the
// sp2blint idequality analyzer enforces this in annotated functions.
type ID uint32

// NoID is the reserved identifier meaning "unbound" in lookup patterns.
const NoID ID = 0

// Dict interns RDF terms to dense IDs and resolves them back. It is the
// shared vocabulary of a Store; IDs from different Dicts are not
// comparable.
type Dict struct {
	ids   map[rdf.Term]ID
	terms []rdf.Term // terms[i] is the term with ID i+1
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[rdf.Term]ID, 1024)}
}

// Intern returns the ID for t, assigning a fresh one on first sight.
//
// sp2b:mutates-store dictionary growth is part of the loading phase
func (d *Dict) Intern(t rdf.Term) ID {
	if id, ok := d.ids[t]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	id := ID(len(d.terms))
	d.ids[t] = id
	return id
}

// Lookup returns the ID for t without interning. ok is false when the term
// has never been seen; queries use this to short-circuit patterns naming
// constants absent from the data (e.g. Q12c's probe).
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	id, ok := d.ids[t]
	return id, ok
}

// Term resolves an ID back to its term. It panics on out-of-range IDs,
// which indicate programmer error (mixing dictionaries), not bad input.
func (d *Dict) Term(id ID) rdf.Term {
	if id == NoID || int(id) > len(d.terms) {
		panic(fmt.Sprintf("store: invalid dictionary ID %d (size %d)", id, len(d.terms)))
	}
	return d.terms[id-1]
}

// Len returns the number of interned terms.
func (d *Dict) Len() int { return len(d.terms) }

// Terms exposes the interned terms in ID order: Terms()[i] is the term
// with ID i+1. The returned slice is the dictionary's backing storage;
// callers must not mutate it. The snapshot writer serializes it.
func (d *Dict) Terms() []rdf.Term { return d.terms }

// NewDictFromTerms rebuilds a dictionary from a Terms()-shaped slice,
// assigning term i the ID i+1 — the inverse of Terms, used by the
// snapshot loader to rehydrate a frozen store's dictionary without
// re-interning. The terms must be strictly increasing under
// rdf.Term.Compare, the order Freeze numbers a dictionary in; strictly
// increasing terms are also distinct. Any other slice indicates a
// corrupt input and returns an error naming the first term out of
// order. The dictionary takes ownership of the slice. The map is sized
// for exactly these terms: a loaded dictionary is only read. Sized for
// twice as many, it took a 250k-triple store's heap from 41 to 60 MB.
func NewDictFromTerms(terms []rdf.Term) (*Dict, error) {
	d := &Dict{ids: make(map[rdf.Term]ID, len(terms)), terms: terms}
	var prev rdf.SortKey
	for i, t := range terms {
		key := t.SortKey()
		if i > 0 && prev.Compare(key) >= 0 {
			return nil, fmt.Errorf("store: dictionary term %d %s does not follow term %d %s in Compare order", i+1, t, i, terms[i-1])
		}
		prev = key
		d.ids[t] = ID(i + 1)
	}
	return d, nil
}

// canonicalize renumbers the dictionary in rdf.Term.Compare order, so
// that id(a) < id(b) exactly when a.Compare(b) < 0, and returns the
// renumbering: renum[old] is the term's new ID. The lookup map is
// rebuilt sized for exactly the dictionary's terms.
//
// sp2b:mutates-store Freeze numbers the dictionary before it sorts the indexes
func (d *Dict) canonicalize() (renum []ID) {
	keys := make([]keyedID, len(d.terms))
	for i, t := range d.terms {
		keys[i] = keyedID{t.SortKey(), ID(i + 1)}
	}
	sortKeyed(keys, make([]keyedID, len(keys)), runtime.GOMAXPROCS(0))
	terms := make([]rdf.Term, len(d.terms))
	ids := make(map[rdf.Term]ID, len(d.terms))
	renum = make([]ID, len(d.terms)+1)
	for i, k := range keys {
		t := d.terms[k.id-1]
		terms[i] = t
		ids[t] = ID(i + 1)
		renum[k.id] = ID(i + 1)
	}
	d.terms, d.ids = terms, ids
	return renum
}

// keyedID is a term's sort key beside the term's ID.
type keyedID struct {
	key rdf.SortKey
	id  ID
}

// sortKeyed sorts keys by their sort keys, on up to procs goroutines:
// the halves concurrently, merged through buf (as long as keys). On one
// core of a 2-vCPU x86-64 host, sorting the 119k terms of a 250k-triple
// document takes about 100 ms, which a load would otherwise add whole.
func sortKeyed(keys, buf []keyedID, procs int) {
	cmp := func(a, b keyedID) int { return a.key.Compare(b.key) }
	if procs < 2 || len(keys) < 4096 {
		slices.SortFunc(keys, cmp)
		return
	}
	a, b := keys[:len(keys)/2], keys[len(keys)/2:]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sortKeyed(a, buf[:len(a)], procs/2)
	}()
	sortKeyed(b, buf[len(a):], procs-procs/2)
	wg.Wait()
	out := buf[:0]
	for len(a) > 0 && len(b) > 0 {
		if cmp(a[0], b[0]) <= 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	copy(keys, append(append(out, a...), b...))
}
