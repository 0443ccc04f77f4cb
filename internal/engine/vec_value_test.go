package engine_test

// Regression tests for the vectorized FILTER kernels' comparison
// semantics, mirroring TestHashLeftJoinValueEquality one layer down:
// sp2b:valuecmp FILTER `=` compares terms by value, never by raw
// dictionary ID. A column kernel that compared the two ID columns
// directly would be fast and almost always right — value-equal terms
// with distinct lexical forms ("1940" vs "01940", both xsd:integer)
// intern to different IDs and are exactly the case that would silently
// break.

import (
	"testing"

	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// vecValueStore builds a graph where two properties of the same subject
// hold value-equal but lexically distinct integers, so a multi-pattern
// BGP (covered by the batch path) binds both and a FILTER compares them.
func vecValueStore() *store.Store {
	s := store.New()
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.NewTriple(rdf.IRI(subj), rdf.IRI(pred), obj))
	}
	// a1: pages and month are value-equal across lexical forms.
	add("http://x/a1", "http://x/pages", rdf.Integer(12))
	add("http://x/a1", "http://x/month", rdf.TypedLiteral("012", rdf.XSDInteger))
	// a2: identical terms — equal by ID and by value.
	add("http://x/a2", "http://x/pages", rdf.Integer(7))
	add("http://x/a2", "http://x/month", rdf.Integer(7))
	// a3: genuinely different values.
	add("http://x/a3", "http://x/pages", rdf.Integer(3))
	add("http://x/a3", "http://x/month", rdf.Integer(9))
	s.Freeze()
	return s
}

// TestVecFilterValueEquality drives the var-var `=` fast kernel through
// the batch pipeline: the filter must keep a1 (value-equal, distinct
// IDs) and a2 (same ID), and drop a3 — under every configuration,
// including the tiny-batch one where the kernel narrows selections that
// cross batch boundaries (runAll enforces cross-config agreement).
func TestVecFilterValueEquality(t *testing.T) {
	res := runAll(t, vecValueStore(), `
		SELECT ?a WHERE {
			?a <http://x/pages> ?pages .
			?a <http://x/month> ?month .
			FILTER (?pages = ?month)
		}`)
	got := render(res)
	if len(got) != 2 {
		t.Fatalf("got %d rows, want 2 (a1 value-equal, a2 id-equal): %v", len(got), got)
	}
	for _, want := range []string{"http://x/a1", "http://x/a2"} {
		found := false
		for _, row := range got {
			if row == "<"+want+">" {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing %s in %v", want, got)
		}
	}
}

// TestVecFilterValueInequality is the complement: `!=` must treat the
// value-equal pair as equal (drop a1) and keep only the genuinely
// different a3.
func TestVecFilterValueInequality(t *testing.T) {
	res := runAll(t, vecValueStore(), `
		SELECT ?a WHERE {
			?a <http://x/pages> ?pages .
			?a <http://x/month> ?month .
			FILTER (?pages != ?month)
		}`)
	got := render(res)
	if len(got) != 1 || got[0] != "<http://x/a3>" {
		t.Fatalf("got %v, want exactly a3", got)
	}
}

// TestVecJoinBindingIsTermIdentity pins the complementary contract: a
// repeated variable in a BGP joins by term identity, so "12" and "012"
// do NOT join even though FILTER `=` calls them equal. Every operator
// configuration must agree with the oracle on both halves of the
// distinction.
func TestVecJoinBindingIsTermIdentity(t *testing.T) {
	res := runAll(t, vecValueStore(), `
		SELECT ?a ?b WHERE {
			?a <http://x/pages> ?n .
			?b <http://x/month> ?n .
		}`)
	got := render(res)
	// Only a2 has pages and month interning to the same term.
	if len(got) != 1 {
		t.Fatalf("got %d rows, want 1 (identity join only): %v", len(got), got)
	}
}
