// Package readertest is the reusable conformance suite for
// store.Reader implementations. Every layer that offers the engine a
// triple source — the frozen store itself, or an MVCC snapshot layering
// a delta over a base generation — must present ranges with identical ordering, narrowing, and bulk-copy
// semantics, or merge joins and the vectorized scan silently produce
// wrong answers. The suite pins those semantics once so each
// implementation's tests are one call:
//
//	readertest.Run(t, func(t *testing.T, triples []rdf.Triple) store.Reader { ... })
package readertest

import (
	"fmt"
	"slices"
	"testing"

	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// Fixture returns the deterministic dataset the suite runs over: a few
// hundred triples shaped like the benchmark's data — star-shaped
// subjects, predicates of very different cardinalities, objects shared
// across subjects, typed and language-tagged literals — so range
// narrowing and statistics have something non-trivial to get wrong.
func Fixture() []rdf.Triple {
	const ns = "http://example.org/"
	var out []rdf.Triple
	add := func(s, p string, o rdf.Term) {
		out = append(out, rdf.Triple{S: rdf.IRI(ns + s), P: rdf.IRI(ns + p), O: o})
	}
	for i := 0; i < 40; i++ {
		doc := fmt.Sprintf("doc%02d", i)
		add(doc, "type", rdf.IRI(ns+"Article"))
		add(doc, "year", rdf.TypedLiteral(fmt.Sprintf("%d", 1990+i%12), "http://www.w3.org/2001/XMLSchema#integer"))
		add(doc, "title", rdf.LangLiteral(fmt.Sprintf("Title %02d", i), "en"))
		// creators overlap across documents: objects shared by subjects
		add(doc, "creator", rdf.IRI(ns+fmt.Sprintf("person%d", i%7)))
		if i%2 == 0 {
			add(doc, "creator", rdf.IRI(ns+fmt.Sprintf("person%d", (i+3)%7)))
		}
		if i%5 == 0 {
			add(doc, "cites", rdf.IRI(ns+fmt.Sprintf("doc%02d", (i+1)%40)))
		}
	}
	for i := 0; i < 7; i++ {
		p := fmt.Sprintf("person%d", i)
		add(p, "type", rdf.IRI(ns+"Person"))
		add(p, "name", rdf.Literal(fmt.Sprintf("Person %d", i)))
	}
	// one blank-node subject, and a rare predicate held by one subject
	out = append(out, rdf.Triple{S: rdf.Blank("b0"), P: rdf.IRI(ns + "note"), O: rdf.Literal("draft")})
	return out
}

// Open builds the Reader under test from the fixture triples. The
// implementation may intern terms in any order; the suite resolves IDs
// through the Reader's own dictionary. A Reader whose dictionary
// appends an extension above a frozen base, as an MVCC snapshot's
// does, is wrapped by its test in a BaseTerms() int method that says
// where the base ends.
type Open func(t *testing.T, triples []rdf.Triple) store.Reader

// Run exercises one store.Reader implementation against the full suite.
func Run(t *testing.T, open Open) {
	triples := Fixture()
	r := open(t, triples)
	if r.Len() != len(triples) {
		t.Fatalf("Len() = %d, fixture has %d distinct triples", r.Len(), len(triples))
	}
	enc, ids := encodeFixture(t, r, triples)
	pats := patterns(ids)

	t.Run("TriplesSPO", func(t *testing.T) { checkTriples(t, r, enc) })
	t.Run("RangeOrder", func(t *testing.T) { checkRanges(t, r, enc, pats) })
	t.Run("Narrowing", func(t *testing.T) { checkNarrowing(t, r, enc, pats) })
	t.Run("CopyColumns", func(t *testing.T) { checkCopyColumns(t, r, pats) })
	t.Run("Runs", func(t *testing.T) { checkRuns(t, r, pats) })
	t.Run("Count", func(t *testing.T) { checkCounts(t, r, enc, pats) })
	t.Run("Stats", func(t *testing.T) { checkStats(t, r, enc) })
	t.Run("CanonicalIDs", func(t *testing.T) { checkCanonicalIDs(t, r) })
}

// checkCanonicalIDs holds the dictionary to the numbering Freeze gives
// it: base IDs 1..n in strictly increasing rdf.Term.Compare order. Over
// a layered dictionary, every extension term resolves to its own ID
// above the base.
func checkCanonicalIDs(t *testing.T, r store.Reader) {
	dict := r.TermDict()
	base := dict.Len()
	if l, ok := r.(interface{ BaseTerms() int }); ok {
		base = l.BaseTerms()
		if base < 1 || base >= dict.Len() {
			t.Fatalf("base holds %d of %d terms, want a base and an extension", base, dict.Len())
		}
	}
	for id := store.ID(2); int(id) <= base; id++ {
		if a, b := dict.Term(id-1), dict.Term(id); a.Compare(b) >= 0 {
			t.Fatalf("base ID %d %s does not follow ID %d %s in Compare order", id, b, id-1, a)
		}
	}
	for id := store.ID(base + 1); int(id) <= dict.Len(); id++ {
		if got, ok := dict.Lookup(dict.Term(id)); !ok || got != id {
			t.Fatalf("extension term %s (ID %d) looks up to ID %d, %v", dict.Term(id), id, got, ok)
		}
	}
}

// encodeFixture resolves the fixture through the reader's dictionary
// and returns the expected encoded dataset (sorted SPO, deduplicated)
// plus a grab-bag of interesting IDs for pattern construction.
func encodeFixture(t *testing.T, r store.Reader, triples []rdf.Triple) ([]store.EncTriple, map[string]store.ID) {
	t.Helper()
	dict := r.TermDict()
	lookup := func(term rdf.Term) store.ID {
		id, ok := dict.Lookup(term)
		if !ok {
			t.Fatalf("dictionary is missing fixture term %v", term)
		}
		return id
	}
	enc := make([]store.EncTriple, 0, len(triples))
	for _, tr := range triples {
		enc = append(enc, store.EncTriple{lookup(tr.S), lookup(tr.P), lookup(tr.O)})
	}
	store.SortEncTriples(enc)

	const ns = "http://example.org/"
	ids := map[string]store.ID{
		"type":    lookup(rdf.IRI(ns + "type")),
		"creator": lookup(rdf.IRI(ns + "creator")),
		"note":    lookup(rdf.IRI(ns + "note")),
		"Article": lookup(rdf.IRI(ns + "Article")),
		"person3": lookup(rdf.IRI(ns + "person3")),
		"doc00":   lookup(rdf.IRI(ns + "doc00")),
	}
	return enc, ids
}

// patterns is the matrix of triple patterns the suite probes: every
// binding shape, including ones whose bound components cannot form an
// index prefix and must be narrowed through residual filters.
func patterns(ids map[string]store.ID) [][3]store.ID {
	n := store.NoID
	return [][3]store.ID{
		{n, n, n},
		{ids["doc00"], n, n},
		{n, ids["type"], n},
		{n, ids["creator"], n},
		{n, ids["note"], n},
		{n, n, ids["Article"]},
		{n, n, ids["person3"]},
		{ids["doc00"], ids["type"], n},
		{ids["doc00"], n, ids["Article"]}, // S?O: object is residual in every order
		{n, ids["type"], ids["Article"]},
		{ids["doc00"], ids["type"], ids["Article"]},
		{ids["doc00"], ids["type"], ids["person3"]}, // no match
	}
}

func bruteMatch(enc []store.EncTriple, p [3]store.ID) []store.EncTriple {
	var out []store.EncTriple
	for _, t := range enc {
		if (p[0] == store.NoID || t[0] == p[0]) &&
			(p[1] == store.NoID || t[1] == p[1]) &&
			(p[2] == store.NoID || t[2] == p[2]) {
			out = append(out, t)
		}
	}
	return out
}

// checkTriples holds the full scan — the unbound SPO range in merged
// order — to the whole dataset, sorted SPO.
func checkTriples(t *testing.T, r store.Reader, enc []store.EncTriple) {
	got := Triples(r)
	if len(got) != len(enc) {
		t.Fatalf("the full scan returned %d rows, want %d", len(got), len(enc))
	}
	for i := range got {
		if got[i] != enc[i] {
			t.Fatalf("full scan row %d = %v, want %v (must be sorted SPO)", i, got[i], enc[i])
		}
	}
}

// Triples returns a reader's whole dataset in SPO order: its unbound
// SPO range, read in merged order.
func Triples(r store.Reader) []store.EncTriple {
	return Rows(r.RangeIn(store.OrderSPO, store.NoID, store.NoID, store.NoID))
}

// checkRanges verifies, for every pattern under every index ordering:
// rows strictly ascending in index component order, lead components
// equal to the pattern's bound prefix, and the filtered row set equal
// to a brute-force scan.
func checkRanges(t *testing.T, r store.Reader, enc []store.EncTriple, pats [][3]store.ID) {
	for _, p := range pats {
		want := bruteMatch(enc, p)
		for _, ord := range []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP} {
			rng := r.RangeIn(ord, p[0], p[1], p[2])
			if rng.Ord != ord {
				t.Errorf("RangeIn(%v, %v): Ord = %v", ord, p, rng.Ord)
			}
			key := ord.Permute(store.EncTriple{p[0], p[1], p[2]})
			prefix := 0
			for prefix < 3 && key[prefix] != store.NoID {
				prefix++
			}
			if rng.Lead > 3 || rng.Lead < 0 {
				t.Fatalf("RangeIn(%v, %v): Lead = %d out of range", ord, p, rng.Lead)
			}
			// Lead may exceed the pattern's bound prefix only if the rows
			// really do share the longer constant prefix; it must never
			// claim less than the bound prefix.
			if rng.Lead < prefix {
				t.Errorf("RangeIn(%v, %v): Lead = %d < bound prefix %d", ord, p, rng.Lead, prefix)
			}
			rows := copiedMerge(t, rng)
			for i := 0; i < prefix; i++ {
				for _, row := range rows {
					if row[i] != key[i] {
						t.Fatalf("RangeIn(%v, %v): row %v violates lead component %d = %d", ord, p, row, i, key[i])
					}
				}
			}
			prev := store.EncTriple{}
			first := true
			got := Matching(rng)
			for _, row := range Rows(rng) {
				if !first && store.CompareEnc(prev, row) >= 0 {
					t.Fatalf("RangeIn(%v, %v): rows not strictly ascending: %v then %v", ord, p, prev, row)
				}
				prev, first = row, false
			}
			if len(got) != len(want) {
				t.Fatalf("RangeIn(%v, %v): %d matching rows, want %d", ord, p, len(got), len(want))
			}
			seen := map[store.EncTriple]bool{}
			for _, row := range got {
				seen[row] = true
			}
			for _, w := range want {
				if !seen[w] {
					t.Fatalf("RangeIn(%v, %v): missing row %v", ord, p, w)
				}
			}
		}
	}
}

// checkNarrowing pins the residual-filter contract: bound components
// past the index prefix appear in Filt (or are already folded into a
// dense range), and reading the range through its residual yields only
// matching rows.
func checkNarrowing(t *testing.T, r store.Reader, enc []store.EncTriple, pats [][3]store.ID) {
	for _, p := range pats {
		for _, ord := range []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP} {
			for _, row := range Matching(r.RangeIn(ord, p[0], p[1], p[2])) {
				if !passes(row, store.EncTriple(p)) {
					t.Fatalf("RangeIn(%v, %v): yielded non-matching row %v", ord, p, row)
				}
			}
		}
		// store.Range (the order ChooseOrder picks) must agree with
		// brute force too.
		if n, want := len(Matching(store.Range(r, p[0], p[1], p[2]))), len(bruteMatch(enc, p)); n != want {
			t.Fatalf("Range(%v): %d rows, want %d", p, n, want)
		}
	}
}

// checkCopyColumns verifies the bulk path for every pattern and
// ordering: resumed across chunks of 1, 3, 7 (deliberately odd) and
// 1024 rows, both as IndexRange.CopyColumns from a merged position and
// through one Cursor, it must yield the copied merge of the range's
// runs, filtered, whose rows must be those a brute-force filter of the
// unbound SPO range finds.
func checkCopyColumns(t *testing.T, r store.Reader, pats [][3]store.ID) {
	all := Triples(r)
	for _, p := range pats {
		brute := bruteMatch(all, p)
		for _, ord := range []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP} {
			rng := r.RangeIn(ord, p[0], p[1], p[2])
			var want []store.EncTriple
			for _, row := range copiedMerge(t, rng) {
				if passes(row, rng.Filt) {
					want = append(want, ord.Unpermute(row))
				}
			}
			sorted := slices.Clone(want)
			store.SortEncTriples(sorted)
			if !slices.Equal(sorted, brute) {
				t.Fatalf("RangeIn(%v, %v): filtered rows %v, brute force finds %v", ord, p, sorted, brute)
			}
			for _, chunk := range []int{1, 3, 7, 1024} {
				for _, cursor := range []bool{false, true} {
					if got := copyAll(rng, chunk, cursor); !slices.Equal(got, want) {
						t.Fatalf("CopyColumns(%v, %v) by %d (cursor %v): %v, want %v", ord, p, chunk, cursor, got, want)
					}
				}
			}
		}
	}
}

// Rows returns a range's rows in merged order, read through a Cursor
// one stretch at a time.
func Rows(rng store.IndexRange) []store.EncTriple { return walk(rng.Cursor()) }

// Matching returns the rows of a range that pass its residual
// constraint, in merged order and unpermuted into SPO component order:
// what a row-at-a-time reader of the range sees.
func Matching(rng store.IndexRange) []store.EncTriple {
	var out []store.EncTriple
	for _, row := range Rows(rng) {
		if passes(row, rng.Filt) {
			out = append(out, rng.Ord.Unpermute(row))
		}
	}
	return out
}

// walk returns a cursor's unread rows.
func walk(c store.Cursor) []store.EncTriple {
	var out []store.EncTriple
	for run := c.Run(); len(run) > 0; run = c.Run() {
		out = append(out, run...)
		c.Advance(len(run))
	}
	return out
}

// copiedMerge is the reference the cursor must reproduce: both runs of
// the range copied into one slice and sorted. It fails the test unless
// each run is strictly ascending and the two are disjoint.
func copiedMerge(t *testing.T, rng store.IndexRange) []store.EncTriple {
	t.Helper()
	for _, run := range [][]store.EncTriple{rng.Rows, rng.Delta} {
		for i := 1; i < len(run); i++ {
			if store.CompareEnc(run[i-1], run[i]) >= 0 {
				t.Fatalf("%v range: a run is not strictly ascending: %v then %v", rng.Ord, run[i-1], run[i])
			}
		}
	}
	out := append(slices.Clone(rng.Rows), rng.Delta...)
	store.SortEncTriples(out)
	for i := 1; i < len(out); i++ {
		if out[i-1] == out[i] {
			t.Fatalf("%v range: row %v is in both runs", rng.Ord, out[i])
		}
	}
	return out
}

// checkRuns holds the other ways of reading a range — Len, a cursor
// walk, Partition and cursor seeks — to the copied merge of its runs,
// for every pattern and ordering (CopyColumns is checkCopyColumns').
func checkRuns(t *testing.T, r store.Reader, pats [][3]store.ID) {
	for _, p := range pats {
		for _, ord := range []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP} {
			rng := r.RangeIn(ord, p[0], p[1], p[2])
			want := copiedMerge(t, rng)
			if rng.Len() != len(want) {
				t.Fatalf("RangeIn(%v, %v): Len() = %d, the runs hold %d rows", ord, p, rng.Len(), len(want))
			}
			if got := Rows(rng); !slices.Equal(got, want) {
				t.Fatalf("RangeIn(%v, %v): cursor walk %v, want %v", ord, p, got, want)
			}
			for parts := 1; parts <= 5; parts++ {
				var got []store.EncTriple
				for _, part := range rng.Partition(parts) {
					got = append(got, Rows(part)...)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("RangeIn(%v, %v).Partition(%d): parts concatenate to %v, want %v", ord, p, parts, got, want)
				}
			}
			if rng.Lead < 3 {
				checkSeeks(t, rng, want)
			}
		}
	}
}

func passes(row, filt store.EncTriple) bool {
	return (filt[0] == store.NoID || row[0] == filt[0]) &&
		(filt[1] == store.NoID || row[1] == filt[1]) &&
		(filt[2] == store.NoID || row[2] == filt[2])
}

// copyAll decodes the whole range chunk rows at a time, resuming either
// IndexRange.CopyColumns at a merged position or one Cursor.
func copyAll(rng store.IndexRange, chunk int, cursor bool) []store.EncTriple {
	s, p, o := make([]store.ID, chunk), make([]store.ID, chunk), make([]store.ID, chunk)
	var got []store.EncTriple
	c := rng.Cursor()
	for start := 0; start < rng.Len(); {
		var written, consumed int
		if cursor {
			written, consumed = c.CopyColumns(chunk, s, p, o)
		} else {
			written, consumed = rng.CopyColumns(start, chunk, s, p, o)
		}
		if consumed == 0 {
			break
		}
		for i := 0; i < written; i++ {
			got = append(got, store.EncTriple{s[i], p[i], o[i]})
		}
		start += consumed
	}
	return got
}

// checkSeeks seeks to every key at the range's Lead component, one
// fresh cursor per key and one cursor galloping through the keys in
// ascending order as a merge join does: each seek must leave exactly
// the rows of the copied merge from the first with that component at
// least the key.
func checkSeeks(t *testing.T, rng store.IndexRange, want []store.EncTriple) {
	t.Helper()
	var keys []store.ID
	for _, row := range want {
		k := row[rng.Lead]
		if len(keys) == 0 || keys[len(keys)-1] != k {
			keys = append(keys, k)
		}
	}
	if len(keys) > 0 {
		keys = append(keys, keys[len(keys)-1]+1) // past every row
	}
	walker := rng.Cursor()
	for _, k := range keys {
		from := len(want)
		for i, row := range want {
			if row[rng.Lead] >= k {
				from = i
				break
			}
		}
		fresh := rng.Cursor()
		fresh.Seek(k)
		walker.Seek(k)
		for _, c := range []store.Cursor{fresh, walker} {
			if got := walk(c); !slices.Equal(got, want[from:]) {
				t.Fatalf("%v range: Seek(%d) leaves %v, want %v", rng.Ord, k, got, want[from:])
			}
		}
	}
}

func checkCounts(t *testing.T, r store.Reader, enc []store.EncTriple, pats [][3]store.ID) {
	for _, p := range pats {
		if got, want := store.Count(r, p[0], p[1], p[2]), len(bruteMatch(enc, p)); got != want {
			t.Errorf("Count(%v) = %d, want %d", p, got, want)
		}
	}
}

// checkStats checks the optimizer statistics against exact values
// computed from the dataset. store.Stats documents estimates, not
// contracts, so distinct counts only need to land within sane bounds;
// per-predicate cardinalities must be exact (every implementation
// derives them from real counts).
func checkStats(t *testing.T, r store.Reader, enc []store.EncTriple) {
	st := r.Stats()
	predCount := map[store.ID]int{}
	for _, tr := range enc {
		predCount[tr[1]]++
	}
	// Per-predicate cardinalities are exact in every implementation
	// (base and delta counts add). Distinct counts are estimates —
	// implementations may under- or over-count (an MVCC snapshot
	// approximates from its base generation) — so they only need sane
	// bounds:
	// positive when the predicate exists, never above the matching
	// triple count.
	for p, want := range predCount {
		if got := st.PredCardinality(p); got != want {
			t.Errorf("PredCardinality(%d) = %d, want %d", p, got, want)
		}
		if got := st.DistinctSubjects(p); got < 1 || got > want {
			t.Errorf("DistinctSubjects(%d) = %d, want within [1, %d]", p, got, want)
		}
		if got := st.DistinctObjects(p); got < 1 || got > want {
			t.Errorf("DistinctObjects(%d) = %d, want within [1, %d]", p, got, want)
		}
	}
	if got := st.TotalDistinctSubjects(); got < 1 || got > len(enc) {
		t.Errorf("TotalDistinctSubjects() = %d, want within [1, %d]", got, len(enc))
	}
	if got := st.TotalDistinctObjects(); got < 1 || got > len(enc) {
		t.Errorf("TotalDistinctObjects() = %d, want within [1, %d]", got, len(enc))
	}
	if got := st.DistinctPredicates(); got < 1 || got > len(predCount) {
		t.Errorf("DistinctPredicates() = %d, want within [1, %d]", got, len(predCount))
	}
}
