package engine_test

import (
	"context"
	"fmt"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
	"sp2bench/internal/store/readertest"
)

// oracleFiles are the files the reference evaluator lives in.
var oracleFiles = []string{"oracle_test.go", "oracle_expr_test.go"}

// TestOracleImports holds the oracle to its independence: its files may
// import the standard library, the parser and the RDF term type, and
// nothing of the engine or its algebra.
func TestOracleImports(t *testing.T) {
	allowed := map[string]bool{"sp2bench/internal/rdf": true, "sp2bench/internal/sparql": true}
	for _, name := range oracleFiles {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.Contains(path, ".") || (strings.HasPrefix(path, "sp2bench/") && !allowed[path]) {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

// oracleOf builds the oracle over a reader's whole dataset, decoded to
// terms.
func oracleOf(r store.Reader) *oracle {
	dict := r.TermDict()
	var triples []rdf.Triple
	for _, t := range readertest.Triples(r) {
		triples = append(triples, rdf.NewTriple(dict.Term(t[0]), dict.Term(t[1]), dict.Term(t[2])))
	}
	return newOracle(triples)
}

// sortedRows runs q on eng and returns its rows sorted, as a multiset
// to compare; an ASK renders as its verdict.
func sortedRows(t *testing.T, eng *engine.Engine, q *sparql.Query) []string {
	t.Helper()
	res, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", eng.Options().Name, err)
	}
	if res.Form == sparql.FormAsk {
		return []string{fmt.Sprintf("ask=%v", res.Ask)}
	}
	rows := render(res)
	sort.Strings(rows)
	return rows
}

// allows reports whether the oracle's answer allows the engine's result.
func (a *answer) allows(res *engine.Result) error {
	if a.isAsk {
		if res.Form != sparql.FormAsk || res.Ask != a.ask {
			return fmt.Errorf("ASK %v, the oracle answers %v", res.Ask, a.ask)
		}
		return nil
	}
	return a.check(render(res))
}

// agree runs q on every configuration over r and fails t for each whose
// result the oracle's answer does not allow. label names the case.
func agree(t *testing.T, want *answer, r store.Reader, q *sparql.Query, label string, configs ...engine.Options) {
	t.Helper()
	for _, opts := range configs {
		res, err := engine.NewReader(r, opts).Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, opts.Name, err)
		}
		if err := want.allows(res); err != nil {
			t.Errorf("%s/%s: %v", label, opts.Name, err)
		}
	}
}

// TestOracleOnPaperShapes checks the oracle itself against the
// hand-verified tiny library on Q6's shape (an OPTIONAL whose FILTER
// reads both sides, then !bound), so the agreement tests cannot pass
// vacuously with a broken oracle.
func TestOracleOnPaperShapes(t *testing.T) {
	s := tinyLibrary()
	q, err := sparql.Parse(`
		SELECT ?yr ?name ?doc WHERE {
			?class rdfs:subClassOf foaf:Document .
			?doc rdf:type ?class .
			?doc dcterms:issued ?yr .
			?doc dc:creator ?author .
			?author foaf:name ?name
			OPTIONAL {
				?class2 rdfs:subClassOf foaf:Document .
				?doc2 rdf:type ?class2 .
				?doc2 dcterms:issued ?yr2 .
				?doc2 dc:creator ?author2
				FILTER (?author = ?author2 && ?yr2 < ?yr)
			}
			FILTER (!bound(?author2))
		}`, rdf.Prefixes)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleOf(s).answer(q)
	rows := want.rows()
	if len(rows) != 3 {
		t.Fatalf("oracle Q6 = %d rows, want 3 (alice, bob, carol debuts): %v", len(rows), rows)
	}
	for _, row := range rows {
		if !strings.Contains(row, "1950") {
			t.Fatalf("oracle Q6 contains non-debut row: %v", rows)
		}
	}
	agree(t, want, s, q, "q6 shape", engine.Native())
}

// TestComparisonsAgreeWithOracle holds every comparison operator, under
// every operator configuration, to the oracle's value semantics over
// all pairs of a vocabulary whose literals tie by value across
// lexical forms and datatypes, share a lexical form across datatypes,
// or are ill-typed: the pairs where a shared defect in the engine's
// term equality or order would otherwise go unseen.
func TestComparisonsAgreeWithOracle(t *testing.T) {
	vocab := []rdf.Term{
		rdf.Integer(1), rdf.TypedLiteral("01", rdf.XSDInteger), rdf.TypedLiteral("1.0", rdf.XSDDecimal),
		rdf.TypedLiteral("1", rdf.XSDDouble), rdf.Literal("1"), rdf.String("1"), rdf.LangLiteral("1", "en"),
		rdf.Integer(0), rdf.TypedLiteral("-0", rdf.XSDInteger), rdf.TypedLiteral("2", rdf.XSDGYear),
		rdf.TypedLiteral("true", rdf.XSDBoolean), rdf.TypedLiteral("1", rdf.XSDBoolean),
		rdf.TypedLiteral("x", rdf.XSDInteger), rdf.String("x"), rdf.Literal("x"), rdf.LangLiteral("x", "en"),
		rdf.IRI("urn:x"), rdf.Blank("x"),
	}
	s := store.New()
	for i, v := range vocab {
		s.Add(rdf.NewTriple(rdf.IRI(fmt.Sprintf("urn:s%02d", i)), rdf.IRI("urn:v"), v))
	}
	s.Freeze()
	o := oracleOf(s)
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		src := fmt.Sprintf(`SELECT ?a ?b WHERE { ?a <urn:v> ?x . ?b <urn:v> ?y FILTER (?x %s ?y) }`, op)
		q := sparql.MustParse(src, rdf.Prefixes)
		agree(t, o.answer(q), s, q, src, operatorVariants()...)
	}
}

// planOnBatchOperators fails t unless plan shows batch chains and no
// fallback of any kind.
func planOnBatchOperators(t *testing.T, label, plan string) {
	t.Helper()
	if !strings.Contains(plan, "vec operators:") || strings.Contains(plan, "fallback") {
		t.Errorf("%s: not on the batch operators:\n%s", label, plan)
	}
}

// TestEveryShapeOnBatchOperators holds the algebra shapes that once
// fell back to another executor — empty groups, constant conjuncts,
// correlated OPTIONALs, joins that do not flatten, Q7's double
// negation — under every operator configuration to the oracle on the
// tiny library, and requires each plan to run on the batch operators,
// as it requires of the 17 paper queries and the aggregate extensions.
func TestEveryShapeOnBatchOperators(t *testing.T) {
	s := tinyLibrary()
	o := oracleOf(s)
	q7, _ := queries.ByID("q7")
	shapes := []struct{ name, src string }{
		{"optional-empty-group", `SELECT ?doc ?a WHERE { ?doc dc:creator ?a OPTIONAL {} }`},
		{"leading-optional", `SELECT ?n WHERE { OPTIONAL { ?p foaf:name ?n FILTER (?n = "nobody") } }`},
		{"empty-group-joined", `SELECT ?doc ?a WHERE { {} { ?doc dc:creator ?a } }`},
		{"empty-group-union", `SELECT ?doc ?a WHERE { {} UNION { ?doc dc:creator ?a } }`},
		{"constant-true", `SELECT ?doc WHERE { ?doc dc:creator ?a FILTER (1 = 1) }`},
		{"constant-false", `SELECT ?doc WHERE { ?doc dc:creator ?a FILTER (1 = 2) }`},
		{"optional-filter-reads-left", `SELECT ?doc ?yr ?j WHERE {
			?doc dcterms:issued ?yr OPTIONAL { ?doc swrc:journal ?j FILTER (?yr > 1950) } }`},
		{"join-reads-maybe-unbound", `SELECT ?doc ?j ?t WHERE {
			{ ?doc dc:creator ?a OPTIONAL { ?doc swrc:journal ?j } } { ?j dc:title ?t } }`},
		{"filter-reads-maybe-unbound", `SELECT ?doc ?j ?t WHERE {
			{ ?doc dc:creator ?a OPTIONAL { ?doc swrc:journal ?j } } { ?d dc:title ?t FILTER (!bound(?j)) } }`},
		{"anti-over-maybe-unbound", `SELECT ?doc ?j WHERE {
			?doc dc:creator ?a OPTIONAL { ?doc swrc:journal ?j }
			OPTIONAL { ?j dc:title ?t } FILTER (!bound(?t)) }`},
		{"nested-correlated-optional", `SELECT ?doc ?a ?n WHERE {
			?doc dcterms:issued ?yr
			OPTIONAL { ?doc dc:creator ?a OPTIONAL { ?a foaf:name ?n FILTER (?yr > 1950) } } }`},
		{"q7-idiom", q7.Text},
	}
	for _, sh := range shapes {
		q := sparql.MustParse(sh.src, rdf.Prefixes)
		want := o.answer(q)
		agree(t, want, s, q, sh.name, operatorVariants()...)
		for _, opts := range operatorVariants() {
			plan, err := engine.New(s, opts).Explain(q)
			if err != nil {
				t.Fatalf("%s/%s: %v", sh.name, opts.Name, err)
			}
			planOnBatchOperators(t, sh.name+"/"+opts.Name, plan)
		}
	}
	g, _ := generatedStore(t, 10_000)
	eng := engine.New(g, engine.Native())
	for _, pq := range queries.All() {
		plan, err := eng.Explain(pq.Parse())
		if err != nil {
			t.Fatalf("%s: %v", pq.ID, err)
		}
		planOnBatchOperators(t, pq.ID, plan)
	}
	for _, ext := range queries.Extensions() {
		plan, err := eng.Explain(sparql.MustParse(ext.Text, queries.Prologue))
		if err != nil {
			t.Fatalf("%s: %v", ext.ID, err)
		}
		planOnBatchOperators(t, ext.ID, plan)
	}
}
