package engine_test

import (
	"context"
	"fmt"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
)

func parseQ(t *testing.T, src string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(src, rdf.Prefixes)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestConstructBasic(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `
		CONSTRUCT { ?p bench:note ?name }
		WHERE { ?p rdf:type foaf:Person . ?p foaf:name ?name }`)
	g, err := eng.Construct(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 3 { // alice, bob, carol
		t.Fatalf("constructed %d triples, want 3", len(g))
	}
	for _, tr := range g {
		if tr.P.Value != rdf.BenchNote {
			t.Errorf("unexpected predicate %s", tr.P.Value)
		}
		if !tr.S.IsBlank() || !tr.O.IsLiteral() {
			t.Errorf("unexpected triple shape %v", tr)
		}
	}
}

func TestConstructSkipsUnbound(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	// ?ab is unbound for inproc1 — its template triple must be skipped,
	// not error.
	q := parseQ(t, `
		CONSTRUCT { ?i bench:abstract ?ab . ?i rdf:type foaf:Document }
		WHERE { ?i rdf:type bench:Inproceedings OPTIONAL { ?i bench:abstract ?ab } }`)
	g, err := eng.Construct(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	abstracts, types := 0, 0
	for _, tr := range g {
		switch tr.P.Value {
		case rdf.BenchAbstract:
			abstracts++
		case rdf.RDFType:
			types++
		}
	}
	if abstracts != 1 || types != 2 {
		t.Fatalf("abstracts=%d types=%d, want 1/2", abstracts, types)
	}
}

func TestConstructDeduplicates(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	// Every article contributes the same constant triple.
	q := parseQ(t, `
		CONSTRUCT { bench:Article rdfs:subClassOf foaf:Document }
		WHERE { ?a rdf:type bench:Article }`)
	g, err := eng.Construct(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 1 {
		t.Fatalf("constructed graph must be a set; got %d triples", len(g))
	}
}

func TestConstructTemplateBlankNodesFreshPerSolution(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `
		CONSTRUCT { _:stmt bench:note ?name }
		WHERE { ?p foaf:name ?name }`)
	g, err := eng.Construct(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	subjects := map[string]bool{}
	for _, tr := range g {
		subjects[tr.S.Value] = true
	}
	if len(subjects) != len(g) {
		t.Fatalf("template blank nodes must be fresh per solution: %d subjects for %d triples",
			len(subjects), len(g))
	}
}

func TestDescribeFixedIRI(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `DESCRIBE <http://x/article1>`)
	g, err := eng.Describe(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// article1 has type, 2 creators, issued, journal, title, references.
	if len(g) != 7 {
		t.Fatalf("description has %d triples, want 7", len(g))
	}
	for _, tr := range g {
		if tr.S != rdf.IRI("http://x/article1") {
			t.Errorf("foreign subject %v in description", tr.S)
		}
	}
}

func TestDescribeWithPattern(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `DESCRIBE ?j WHERE { ?j rdf:type bench:Journal }`)
	g, err := eng.Describe(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 3 { // journal: type, title, issued
		t.Fatalf("journal description has %d triples, want 3", len(g))
	}
}

func TestDescribeMissingTermEmpty(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `DESCRIBE <http://x/nonexistent>`)
	g, err := eng.Describe(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 0 {
		t.Fatalf("unknown term must describe to nothing, got %d", len(g))
	}
}

func TestQueryRejectsGraphForms(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	for _, src := range []string{
		`CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }`,
		`DESCRIBE <http://x/article1>`,
	} {
		q := parseQ(t, src)
		if _, err := eng.Query(context.Background(), q); err == nil {
			t.Errorf("Query must reject %v form", q.Form)
		}
	}
}

func TestEvalDispatch(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	ctx := context.Background()

	r, g, err := eng.Eval(ctx, parseQ(t, `SELECT ?x WHERE { ?x rdf:type bench:Article }`))
	if err != nil || r == nil || g != nil {
		t.Fatalf("select dispatch: %v %v %v", r, g, err)
	}
	r, g, err = eng.Eval(ctx, parseQ(t, `DESCRIBE <http://x/j1>`))
	if err != nil || r != nil || len(g) == 0 {
		t.Fatalf("describe dispatch: %v %v %v", r, g, err)
	}
	r, g, err = eng.Eval(ctx, parseQ(t, `CONSTRUCT { ?x rdf:type foaf:Document } WHERE { ?x rdf:type bench:Article }`))
	if err != nil || r != nil || len(g) != 2 {
		t.Fatalf("construct dispatch: %v %v %v", r, g, err)
	}
	r, g, err = eng.Eval(ctx, parseQ(t, `SELECT (COUNT(*) AS ?n) WHERE { ?x rdf:type bench:Article }`))
	if err != nil || r == nil || g != nil {
		t.Fatalf("aggregate dispatch: %v %v %v", r, g, err)
	}
}

// --- aggregation ---

func TestAggregateCountGroupBy(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `
		SELECT ?class (COUNT(?doc) AS ?n)
		WHERE { ?doc rdf:type ?class . ?class rdfs:subClassOf foaf:Document }
		GROUP BY ?class ORDER BY ?class`)
	res, err := eng.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, row := range res.Rows {
		got[row[0].Value] = row[1].Value
	}
	want := map[string]string{
		rdf.BenchArticle:       "2",
		rdf.BenchInproceedings: "2",
		rdf.BenchJournal:       "1",
	}
	if len(got) != len(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%s] = %s, want %s", k, got[k], v)
		}
	}
	if res.Vars[0] != "class" || res.Vars[1] != "n" {
		t.Errorf("output vars = %v", res.Vars)
	}
}

func TestAggregateCountStarVsVar(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	// COUNT(?ab) skips unbound; COUNT(*) counts all rows.
	q := parseQ(t, `
		SELECT (COUNT(*) AS ?all) (COUNT(?ab) AS ?bound)
		WHERE { ?i rdf:type bench:Inproceedings OPTIONAL { ?i bench:abstract ?ab } }`)
	res, err := eng.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0].Value != "2" || res.Rows[0][1].Value != "1" {
		t.Fatalf("all=%s bound=%s, want 2/1", res.Rows[0][0].Value, res.Rows[0][1].Value)
	}
}

func TestAggregateCountDistinct(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `
		SELECT (COUNT(?p) AS ?total) (COUNT(DISTINCT ?p) AS ?distinct)
		WHERE { ?doc dc:creator ?p }`)
	res, err := eng.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// 5 creator triples (alice on both articles, bob on article1 and
	// inproc1, carol on inproc2), 3 distinct persons.
	if res.Rows[0][0].Value != "5" || res.Rows[0][1].Value != "3" {
		t.Fatalf("total=%s distinct=%s, want 5/3", res.Rows[0][0].Value, res.Rows[0][1].Value)
	}
}

func TestAggregateNumerics(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `
		SELECT (SUM(?yr) AS ?sum) (MIN(?yr) AS ?min) (MAX(?yr) AS ?max) (AVG(?yr) AS ?avg)
		WHERE { ?a rdf:type bench:Article . ?a dcterms:issued ?yr }`)
	res, err := eng.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	want := []string{"3901", "1950", "1951", "1950.5"}
	for i, w := range want {
		if row[i].Value != w {
			t.Errorf("column %s = %s, want %s", res.Vars[i], row[i].Value, w)
		}
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `
		SELECT (COUNT(?x) AS ?n) (MIN(?x) AS ?min)
		WHERE { ?x rdf:type bench:Book }`)
	res, err := eng.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("group-less aggregation over empty input must yield one row, got %d", len(res.Rows))
	}
	if res.Rows[0][0].Value != "0" {
		t.Errorf("COUNT = %s, want 0", res.Rows[0][0].Value)
	}
	if !res.Rows[0][1].IsZero() {
		t.Errorf("MIN over empty group must be unbound, got %v", res.Rows[0][1])
	}
	// With GROUP BY, empty input means no groups at all.
	q = parseQ(t, `
		SELECT ?x (COUNT(?x) AS ?n) WHERE { ?x rdf:type bench:Book } GROUP BY ?x`)
	res, err = eng.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("grouped aggregation over empty input must yield no rows, got %d", len(res.Rows))
	}
}

func TestAggregateSumNonNumericUnbound(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `SELECT (SUM(?name) AS ?s) WHERE { ?p foaf:name ?name }`)
	res, err := eng.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsZero() {
		t.Fatalf("SUM over strings must be unbound, got %v", res.Rows[0][0])
	}
}

func TestAggregateOrderByAliasAndSlice(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `
		SELECT ?p (COUNT(?doc) AS ?n)
		WHERE { ?doc dc:creator ?p }
		GROUP BY ?p ORDER BY DESC(?n) LIMIT 1`)
	res, err := eng.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("LIMIT 1 returned %d rows", len(res.Rows))
	}
	if res.Rows[0][1].Value != "2" { // alice has two articles
		t.Fatalf("top author count = %s, want 2", res.Rows[0][1].Value)
	}
}

func TestAggregateViaQueryAndCount(t *testing.T) {
	s := tinyLibrary()
	eng := engine.New(s, engine.Native())
	q := parseQ(t, `
		SELECT ?class (COUNT(?d) AS ?n) WHERE { ?d rdf:type ?class } GROUP BY ?class`)
	// Query must transparently dispatch to Aggregate.
	res, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := eng.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if n != res.Len() {
		t.Fatalf("Count = %d, Query = %d", n, res.Len())
	}
}

// TestAggregateMatchesManualGroupBy cross-checks grouped counts against a
// client-side aggregation of the plain SELECT, on generated data.
func TestAggregateMatchesManualGroupBy(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	eng := engine.New(s, engine.Native())
	ctx := context.Background()

	plain := parseQ(t, `SELECT ?class WHERE { ?d rdf:type ?class . ?class rdfs:subClassOf foaf:Document }`)
	res, err := eng.Query(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	manual := map[string]int{}
	for _, row := range res.Rows {
		manual[row[0].Value]++
	}

	agg := parseQ(t, `
		SELECT ?class (COUNT(?d) AS ?n)
		WHERE { ?d rdf:type ?class . ?class rdfs:subClassOf foaf:Document }
		GROUP BY ?class`)
	ares, err := eng.Aggregate(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ares.Rows) != len(manual) {
		t.Fatalf("groups = %d, manual = %d", len(ares.Rows), len(manual))
	}
	for _, row := range ares.Rows {
		if fmt.Sprint(manual[row[0].Value]) != row[1].Value {
			t.Errorf("class %s: aggregate %s, manual %d", row[0].Value, row[1].Value, manual[row[0].Value])
		}
	}
}

// TestAggregateEnginesAgree: every operator configuration's grouped
// aggregates are the oracle's.
func TestAggregateEnginesAgree(t *testing.T) {
	s, _ := generatedStore(t, 2_000)
	q := parseQ(t, `
		SELECT ?class (COUNT(?d) AS ?n) (MIN(?yr) AS ?first) (MAX(?yr) AS ?last)
		WHERE { ?d rdf:type ?class . ?d dcterms:issued ?yr }
		GROUP BY ?class ORDER BY ?class`)
	agree(t, oracleOf(s).answer(q), s, q, "aggregate", operatorVariants()...)
}
