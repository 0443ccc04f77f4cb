package engine

import (
	"fmt"
	"testing"

	"sp2bench/internal/algebra"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// valueCorpus is a term set dense in the classes where value equality
// and term identity part ways: numeric lexical variants (including -0,
// which parses to negative zero), a plain literal equal both to a
// number and to an xsd:string of the same form, a language-tagged
// literal, and terms equal only to themselves.
func valueCorpus() []rdf.Term {
	var out []rdf.Term
	for _, lex := range []string{"1", "01", "-0", "1.0"} {
		out = append(out, rdf.TypedLiteral(lex, rdf.XSDInteger), rdf.TypedLiteral(lex, rdf.XSDDecimal))
	}
	return append(out,
		rdf.IRI("http://x/a"), rdf.IRI("http://x/b"),
		rdf.Blank("b1"), rdf.Blank("b2"),
		rdf.Integer(0), rdf.Integer(2),
		rdf.Literal("1"), rdf.String("1"), rdf.LangLiteral("1", "en"),
		rdf.String("abc"), rdf.Literal("abc"),
		rdf.TypedLiteral("true", rdf.XSDBoolean),
	)
}

// corpusSources interns the corpus into a frozen store.Dict, and into
// an MVCC snapshot whose base holds the first half of the corpus and
// whose delta extension interned the second half.
func corpusSources(t *testing.T) []store.Reader {
	t.Helper()
	corpus := valueCorpus()
	triple := func(i int, o rdf.Term) rdf.Triple {
		return rdf.NewTriple(rdf.IRI(fmt.Sprintf("http://x/s%d", i)), rdf.IRI("http://x/p"), o)
	}
	full := store.New()
	for i, o := range corpus {
		full.Add(triple(i, o))
	}
	full.Freeze()

	half := len(corpus) / 2
	base := store.New()
	for i, o := range corpus[:half] {
		base.Add(triple(i, o))
	}
	base.Freeze()
	live := mvcc.New(base, mvcc.MergePolicy{Disabled: true})
	t.Cleanup(live.Close)
	var ext []rdf.Triple
	for i, o := range corpus[half:] {
		ext = append(ext, triple(half+i, o))
	}
	live.Apply(ext)
	snap := live.Snapshot()
	t.Cleanup(snap.Close)
	if id, _ := snap.TermDict().Lookup(corpus[len(corpus)-1]); int(id) <= base.TermDict().Len() {
		t.Fatal("the snapshot's extension did not intern the second half of the corpus")
	}
	return []store.Reader{full, snap}
}

// corpusIDs resolves the corpus in src's dictionary.
func corpusIDs(t *testing.T, src store.Reader) []store.ID {
	t.Helper()
	var ids []store.ID
	for _, term := range valueCorpus() {
		id, ok := src.TermDict().Lookup(term)
		if !ok {
			t.Fatalf("%v not interned", term)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestCmpIDsMatchesEvaluator: the compiled comparison core — its
// identity and numeric fast paths and its per-operator memo — returns
// the expression evaluator's verdict (algebra.EqualTerms/CompareTerms,
// an error counting as false, as in a FILTER) for all six operators
// over every pair of the corpus, on a frozen dictionary and on an MVCC
// snapshot's layered one.
func TestCmpIDsMatchesEvaluator(t *testing.T) {
	ops := []sparql.BinaryOp{sparql.OpEq, sparql.OpNeq, sparql.OpLt, sparql.OpGt, sparql.OpLeq, sparql.OpGeq}
	for _, src := range corpusSources(t) {
		c := &compiled{eng: NewReader(src, Native())}
		dict := src.TermDict()
		ids := corpusIDs(t, src)
		for _, op := range ops {
			f := fastCmp{op: op}
			var memo termMemo // shared across pairs: later pairs hit it
			for _, a := range ids {
				for _, b := range ids {
					ta, tb := dict.Term(a), dict.Term(b)
					var want bool
					switch op {
					case sparql.OpEq, sparql.OpNeq:
						eq, err := algebra.EqualTerms(ta, tb)
						want = err == nil && eq == (op == sparql.OpEq)
					default:
						cmp, err := algebra.CompareTerms(ta, tb)
						want = err == nil && map[sparql.BinaryOp]bool{
							sparql.OpLt: cmp < 0, sparql.OpGt: cmp > 0,
							sparql.OpLeq: cmp <= 0, sparql.OpGeq: cmp >= 0,
						}[op]
					}
					if got := f.cmpIDs(c, &memo, a, b); got != want {
						t.Errorf("%T: %v %v %v: cmpIDs %v, evaluator %v", src, ta, op, tb, got, want)
					}
				}
			}
		}
	}
}

// TestValueKeyCoversEquality: whenever `=` accepts two terms their
// value keys are equal, and a valueTable keyed by one finds the other
// — through the build side's memo, the probe's own memo, and the
// identity route IRIs and blank nodes take.
func TestValueKeyCoversEquality(t *testing.T) {
	for _, src := range corpusSources(t) {
		dict := src.TermDict()
		ids := corpusIDs(t, src)
		for i, a := range ids {
			// A one-row table keyed by a; b probes it.
			table := newValueTable(dict, []store.ID{a}, 1, 1, []store.ID{a})
			var probe valueProbe
			for _, b := range ids[i:] {
				ta, tb := dict.Term(a), dict.Term(b)
				eq, err := algebra.EqualTerms(ta, tb)
				if err != nil || !eq {
					continue
				}
				if valueKeyOf(ta) != valueKeyOf(tb) {
					t.Errorf("%v = %v but their value keys differ", ta, tb)
				}
				if rows := probe.rows(table, b); len(rows) != 1 || rows[0] != a {
					t.Errorf("%T: probing by %v missed the row keyed by %v", src, tb, ta)
				}
			}
		}
	}
}

// TestIDMemoGrows: the memo keeps every cell across the rehashes that
// grow it, and reports a key as fresh exactly once.
func TestIDMemoGrows(t *testing.T) {
	var m idMemo[int]
	for id := store.ID(1); id <= 1000; id++ {
		cell, fresh := m.at(id)
		if !fresh {
			t.Fatalf("id %d: not fresh on first sight", id)
		}
		*cell = int(id) * 7
	}
	for id := store.ID(1); id <= 1000; id++ {
		if cell, fresh := m.at(id); fresh || *cell != int(id)*7 {
			t.Fatalf("id %d: fresh=%v cell=%d after growth", id, fresh, *cell)
		}
	}
}
