package engine

// Value-equality keys and the tables built on them. FILTER `=` compares
// terms by value (algebra.EqualTerms), which is coarser than dictionary
// ID identity, so every hash table serving a `?l = ?r` conjunct buckets
// rows by valueKey instead of by ID. The key is resolved once per
// distinct ID through an ID → bucket memo; the per-row path never
// touches a term. termMemo plays the same role for the compiled
// comparisons (fastCmp.cmpIDs): what they need of each ID's term is
// resolved once per operator.

import (
	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// valueKey buckets a term compatibly with the expression evaluator's
// value equality (valueEqual): whenever FILTER (?a = ?b) would accept
// two terms, their keys are equal — numeric literals (typed or plain,
// including numeric-looking xsd:strings, which are value-equal to the
// plain literal of the same form) by numeric value, other string-ish
// literals by lexical form, everything else by the term itself. Keys
// may be coarser than equality; the retained `=` conjunct is the
// semantic check, so over-inclusion costs a probe, never a wrong row.
// Bucketing by dictionary ID instead would silently DROP value-equal
// pairs with distinct lexical forms ("1" vs "01") — an under-inclusion
// no residual filter could repair.
//
// The key is comparable and allocation-free: its strings share the
// dictionary's own bytes. The numeric class keys by float64, which as a
// map key makes -0 and 0 one key, as `=` does.
type valueKey struct {
	class valueClass
	num   float64  // classNumeric: the value
	term  rdf.Term // classString: the lexical form only; classTerm: the term
}

type valueClass uint8

const (
	classNumeric valueClass = iota + 1
	classString
	classTerm
)

func valueKeyOf(t rdf.Term) valueKey {
	if t.IsLiteral() {
		if n, ok := t.Numeric(); ok {
			return valueKey{class: classNumeric, num: n}
		}
		if t.Datatype == "" || t.Datatype == rdf.XSDString {
			if n, ok := rdf.Literal(t.Value).Numeric(); ok {
				return valueKey{class: classNumeric, num: n}
			}
			return valueKey{class: classString, term: rdf.Term{Value: t.Value}}
		}
	}
	return valueKey{class: classTerm, term: t}
}

// valueTable is the one value-bucketed hash table: fixed-width rows
// grouped by the valueKey of one ID per row, stored contiguously in a
// single backing array. A keyless table is one bucket holding every
// row. Read-only once built, so partitions may probe it concurrently,
// each through its own valueProbe.
//
// IRIs and blank nodes never reach the key map. Such a term is
// value-equal only to itself, and every TermSource interns one ID per
// term, so its ID is its bucket's identity: the ID → bucket memo alone
// holds it, and a probe by a non-literal ID the build side never saw
// has no bucket.
type valueTable struct {
	dict  store.TermSource
	width int
	rows  []store.ID // bucket b is rows[start[b]*width : start[b+1]*width]
	start []int32
	// keys maps a literal's value key to its bucket; nil for a keyless
	// table.
	keys map[valueKey]int32
	// byID is the build side's ID → bucket+1 memo, which probes consult
	// first: a probe ID that occurs on the build side costs no key.
	byID *idTable[int32]
}

// newValueTable buckets the n rows of flat (width IDs each) by the
// value key of keyIDs[r], the key ID of row r; nil keyIDs builds a
// keyless table (as does an empty one, which answers nothing either
// way). Each distinct key ID resolves its key once, and a counting sort
// places the rows bucket by bucket, in input order within one.
// Zero-width rows are stored as one NoID column, so that a bucket still
// holds as many rows as matched.
//
// sp2b:valuecmp buckets rows for FILTER `=` by valueKey
func newValueTable(dict store.TermSource, flat []store.ID, width, n int, keyIDs []store.ID) *valueTable {
	if width == 0 {
		flat, width = make([]store.ID, n), 1
	}
	t := &valueTable{dict: dict, width: width}
	if keyIDs == nil {
		t.rows, t.start = flat, []int32{0, int32(n)}
		return t
	}
	t.keys = map[valueKey]int32{}
	t.byID = newIDTable[int32](n)
	bucketOf := make([]int32, n)
	var counts []int32
	for r, id := range keyIDs {
		cell := t.byID.at(id)
		if *cell == 0 {
			b, ok := int32(0), false
			term := dict.Term(id)
			if term.IsLiteral() {
				k := valueKeyOf(term)
				if b, ok = t.keys[k]; !ok {
					t.keys[k] = int32(len(counts))
				}
			}
			if !ok {
				b = int32(len(counts))
				counts = append(counts, 0)
			}
			*cell = b + 1
		}
		bucketOf[r] = *cell - 1
		counts[bucketOf[r]]++
	}
	t.start = make([]int32, len(counts)+1)
	for b, c := range counts {
		t.start[b+1] = t.start[b] + c
	}
	next := counts // reused as each bucket's next free row
	copy(next, t.start)
	t.rows = make([]store.ID, len(flat))
	for r, b := range bucketOf {
		at := int(next[b]) * width
		copy(t.rows[at:at+width], flat[r*width:(r+1)*width])
		next[b]++
	}
	return t
}

// bucket returns the rows of bucket b, width IDs each.
func (t *valueTable) bucket(b int32) []store.ID {
	return t.rows[int(t.start[b])*t.width : int(t.start[b+1])*t.width]
}

// valueProbe is one prober's lookup state on a valueTable: an ID →
// bucket memo for the probe IDs the build side did not see. It belongs
// to one operator instance (one partition), so it needs no lock.
type valueProbe struct {
	table *valueTable
	memo  idMemo[int32] // bucket+1, or -1 when the key has no bucket
}

// rows returns the table rows whose key value matches id's: every row
// of a keyless table, none for an unbound id.
//
// sp2b:valuecmp probes the value-keyed buckets of newValueTable
func (p *valueProbe) rows(t *valueTable, id store.ID) []store.ID {
	if t.keys == nil {
		return t.rows
	}
	if id == store.NoID {
		return nil // unbound key: `=` would be a type error
	}
	if b := t.byID.get(id); b > 0 {
		return t.bucket(b - 1)
	}
	if p.table != t {
		p.table, p.memo = t, idMemo[int32]{}
	}
	cell, fresh := p.memo.at(id)
	if fresh {
		*cell = -1
		if term := t.dict.Term(id); term.IsLiteral() {
			if b, ok := t.keys[valueKeyOf(term)]; ok {
				*cell = b + 1
			}
		}
	}
	if *cell < 0 {
		return nil
	}
	return t.bucket(*cell - 1)
}

// idMemo is an idTable that grows, for per-operator memos whose key
// count is unknown in advance. The zero value is empty and allocates
// on first use, so an operator that never consults it pays nothing.
type idMemo[V any] struct {
	t *idTable[V]
	n int
}

// at returns k's cell and whether k was just added (its cell is then
// V's zero value, for the caller to fill).
func (m *idMemo[V]) at(k store.ID) (*V, bool) {
	if m.t == nil {
		m.t = newIDTable[V](32)
	}
	i, fresh := m.t.claim(k)
	if fresh {
		m.n++
		if 2*m.n > len(m.t.keys) {
			m.grow()
			i, _ = m.t.claim(k)
		}
	}
	return &m.t.vals[i], fresh
}

// grow rehashes the memo into a table of twice the capacity.
func (m *idMemo[V]) grow() {
	old := m.t
	m.t = newIDTable[V](len(old.keys))
	for i, k := range old.keys {
		if k != store.NoID {
			*m.t.at(k) = old.vals[i]
		}
	}
}

// termInfo is what the compiled comparisons need of a term, in the
// classes valueEqual and valueCompare tell apart: whether it is a
// literal, its numeric value when it has one, and its lexical form
// when it is string-ish (plain, language-tagged or xsd:string; a plain
// literal can be numeric and string-ish at once).
type termInfo struct {
	literal, numeric, stringish bool
	num                         float64
	lex                         string // string-ish only: the dictionary's own bytes
}

// termMemo resolves IDs to termInfo once per operator instance. Like an
// operator's selection buffer it is owned by one goroutine, so it needs
// no lock, and it allocates on first use.
type termMemo struct {
	m idMemo[termInfo]
}

// info returns id's termInfo, resolving the term on first sight.
func (m *termMemo) info(dict store.TermSource, id store.ID) termInfo {
	cell, fresh := m.m.at(id)
	if fresh {
		if t := dict.Term(id); t.IsLiteral() {
			cell.literal = true
			cell.num, cell.numeric = t.Numeric()
			if t.Datatype == "" || t.Datatype == rdf.XSDString {
				cell.stringish, cell.lex = true, t.Value
			}
		}
	}
	return *cell
}
