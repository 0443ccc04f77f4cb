package engine_test

// Tests for filter pinning: a pushed `?v = <iri>` conjunct over a BGP
// that binds ?v becomes an index key (prepareBGP), so Q3a–c read only
// the triples with the filtered predicate instead of every triple of
// every article.

import (
	"context"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// q3Props maps each Q3 variant to the property its FILTER selects.
var q3Props = map[string]string{"q3a": rdf.SWRCPages, "q3b": rdf.SWRCMonth, "q3c": rdf.SWRCIsbn}

// TestQ3PinnedRangesOpenOnlyMatches: with the filter pinned, Q3a–c open
// no more index rows than the triples carrying the filtered property
// plus the article type triples — over a plain store and over a
// snapshot with a live delta, sequential and partitioned, with the
// oracle's counts. Unpinned, they opened the whole SPO index.
func TestQ3PinnedRangesOpenOnlyMatches(t *testing.T) {
	ctx := context.Background()
	for _, src := range storeAndSnapshot(t, 10_000) {
		dict := src.r.TermDict()
		typ, _ := dict.Lookup(rdf.IRI(rdf.RDFType))
		article, _ := dict.Lookup(rdf.IRI(rdf.BenchArticle))
		for id, prop := range q3Props {
			q, _ := queries.ByID(id)
			parsed := q.Parse()
			pid, _ := dict.Lookup(rdf.IRI(prop)) // NoID when absent: Count is then 0
			bound := int64(store.Count(src.r, store.NoID, typ, article))
			if pid != store.NoID {
				bound += int64(store.Count(src.r, store.NoID, pid, store.NoID))
			}
			want := len(oracleOf(src.r).answer(parsed).rows())
			for _, opts := range []engine.Options{engine.Native(), parallel4()[0]} {
				name := src.name + "/" + opts.Name + "/" + id
				cr := &countingReader{Reader: src.r}
				n, err := engine.NewReader(cr, opts).Count(ctx, parsed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n != want {
					t.Errorf("%s: %d rows, the oracle %d", name, n, want)
				}
				if rows := cr.rows.Load(); rows > bound {
					t.Errorf("%s: opened %d index rows, want at most %d (property + article type triples)", name, rows, bound)
				}
				plan, err := engine.NewReader(src.r, opts).Explain(parsed)
				if err != nil {
					t.Fatal(err)
				}
				if note := "filter pinned ?property = <" + prop + ">"; !strings.Contains(plan, note) {
					t.Errorf("%s: plan lacks %q:\n%s", name, note, plan)
				}
			}
		}
	}
}

// TestQ3RowCountsUnchanged pins the Q3 result sizes of the seeded
// documents under every operator configuration: pinning changes the
// plan, never the answer.
func TestQ3RowCountsUnchanged(t *testing.T) {
	want := map[int64]map[string]int{
		10_000: {"q3a": 803, "q3b": 11, "q3c": 0},
		50_000: {"q3a": 3899, "q3b": 29, "q3c": 0},
	}
	for _, size := range []int64{10_000, 50_000} {
		if size > 10_000 && testing.Short() {
			continue
		}
		s, _ := generatedStore(t, size)
		for _, opts := range operatorVariants() {
			eng := engine.New(s, opts)
			for id, n := range want[size] {
				q, _ := queries.ByID(id)
				got, err := eng.Count(context.Background(), q.Parse())
				if err != nil {
					t.Fatalf("%d/%s/%s: %v", size, opts.Name, id, err)
				}
				if got != n {
					t.Errorf("%d/%s/%s = %d, want %d", size, opts.Name, id, got, n)
				}
			}
		}
	}
}

// pinStore is a graph for the pinning edge cases: two subjects with a
// <urn:p> edge and value-equal but distinct integers ("1" and "01"),
// one without, and a triple whose predicate is also its object.
func pinStore() *store.Store {
	s := store.New()
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.NewTriple(rdf.IRI(subj), rdf.IRI(pred), obj))
	}
	add("urn:a1", "urn:p", rdf.IRI("urn:b1"))
	add("urn:a1", "urn:q", rdf.Integer(1))
	add("urn:a2", "urn:p", rdf.IRI("urn:b2"))
	add("urn:a2", "urn:q", rdf.TypedLiteral("01", rdf.XSDInteger))
	add("urn:a3", "urn:r", rdf.IRI("urn:b1"))
	add("urn:a3", "urn:q", rdf.Integer(2))
	add("urn:self", "urn:self", rdf.IRI("urn:self"))
	add("urn:a4", "urn:self", rdf.IRI("urn:b1"))
	s.Freeze()
	return s
}

// TestFilterPinningSemantics: every configuration agrees with the
// oracle on each edge case (runAll), and the native plan pins exactly
// the conjuncts it may.
func TestFilterPinningSemantics(t *testing.T) {
	s := pinStore()
	cases := []struct {
		name   string
		query  string
		rows   int // -1: only agreement is checked
		pinned string
	}{
		{"select star keeps the pinned variable",
			`SELECT * WHERE { ?s ?p ?o . ?s <urn:q> ?v FILTER (?p = <urn:p>) }`, 2, "filter pinned ?p"},
		{"reversed operands",
			`SELECT ?s ?p WHERE { ?s ?p ?o . ?s <urn:q> ?v FILTER (<urn:p> = ?p) }`, 2, "filter pinned ?p"},
		{"variable repeated within one pattern",
			`SELECT ?s WHERE { ?s ?p ?p FILTER (?p = <urn:self>) }`, 1, "filter pinned ?p"},
		{"pinned variable in a second conjunct",
			`SELECT ?s ?q WHERE { ?s ?p ?o . ?s ?q ?v FILTER (?p = <urn:p> && ?p != ?q) }`, 2, "filter pinned ?p"},
		{"IRI missing from the dictionary",
			`SELECT ?s WHERE { ?s ?p ?o . ?s <urn:q> ?v FILTER (?p = <urn:nowhere>) }`, 0, "filter pinned ?p"},
		{"contradictory pins",
			`SELECT ?s WHERE { ?s ?p ?o . ?s <urn:q> ?v FILTER (?p = <urn:p> && ?p = <urn:q>) }`, 0, "filter pins ?p to both"},
		{"literal equality compares values",
			`SELECT ?s WHERE { ?s <urn:q> ?o . ?s ?p ?x FILTER (?o = "01"^^xsd:integer) }`, 4, ""},
		{"equality in an OPTIONAL condition",
			`SELECT ?s ?o WHERE { ?s <urn:q> ?v OPTIONAL { ?s ?p ?o FILTER (?p = <urn:p>) } }`, 3, ""},
		{"filter over a group with an OPTIONAL",
			`SELECT ?s ?v WHERE { ?s ?p ?o OPTIONAL { ?s <urn:q> ?v } FILTER (?p = <urn:p>) }`, 2, ""},
		{"variable bound only by the enclosing group",
			`SELECT ?s WHERE { ?s ?p ?o . { ?s <urn:q> ?v FILTER (?p = <urn:p>) } }`, -1, ""},
	}
	for _, tc := range cases {
		res := runAll(t, s, tc.query)
		if tc.rows >= 0 && res.Len() != tc.rows {
			t.Errorf("%s: %d rows, want %d: %v", tc.name, res.Len(), tc.rows, render(res))
		}
		q, err := sparql.Parse(tc.query, rdf.Prefixes)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.New(s, engine.Native()).Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if tc.pinned == "" && strings.Contains(plan, "filter pin") {
			t.Errorf("%s: must not pin:\n%s", tc.name, plan)
		}
		if tc.pinned != "" && !strings.Contains(plan, tc.pinned) {
			t.Errorf("%s: plan lacks %q:\n%s", tc.name, tc.pinned, plan)
		}
	}

	// SELECT * still binds the pinned variable, to the IRI itself.
	res := runAll(t, s, cases[0].query)
	col := -1
	for i, v := range res.Vars {
		if v == "p" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("SELECT * lost ?p: vars %v", res.Vars)
	}
	for _, row := range res.Rows {
		if row[col] != rdf.IRI("urn:p") {
			t.Errorf("?p = %v, want <urn:p>", row[col])
		}
	}
}
