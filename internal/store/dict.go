// Package store implements the physical storage substrate of the
// benchmark: a dictionary-encoded, in-memory triple store with sorted
// SPO/POS/OSP indexes and per-predicate statistics.
//
// This is the classic "triple table" design the paper's storage-scheme
// discussion references: terms are interned to dense uint32 IDs, triples
// are [3]uint32, and each index is a sorted slice answering prefix range
// queries: a dense leading-ID directory locates a bound leading
// component's run in O(1), and only a longer prefix searches within that
// run. The native engine uses the indexes; the
// in-memory engine scans the unindexed triple slice, mirroring the two
// engine families benchmarked in the paper.
package store

import (
	"fmt"

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
// snapshot loader to rehydrate a dictionary without re-interning.
// Duplicate terms indicate a corrupt input and return an error. The
// dictionary takes ownership of the slice. The map is sized for exactly
// these terms: a loaded dictionary is only read. Sized for twice as
// many, it took a 250k-triple store's heap from 41 to 60 MB.
func NewDictFromTerms(terms []rdf.Term) (*Dict, error) {
	d := &Dict{ids: make(map[rdf.Term]ID, len(terms)), terms: terms}
	for i, t := range terms {
		if _, dup := d.ids[t]; dup {
			return nil, fmt.Errorf("store: duplicate dictionary term %s", t)
		}
		d.ids[t] = ID(i + 1)
	}
	return d, nil
}
