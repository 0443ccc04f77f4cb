package engine_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// allConfigs is mem, the reference, followed by every native variant;
// correctness tests run each query under all of them and demand
// identical results.
func allConfigs() []engine.Options {
	return append([]engine.Options{engine.Mem()}, operatorVariants()...)
}

// TestByName: the two configuration names resolve to exactly Mem() and
// Native(); ablation, vectorized and sharded names do not resolve.
func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want engine.Options
		ok   bool
	}{
		{"mem", engine.Mem(), true},
		{"native", engine.Native(), true},
		{engine.Native().Name + "-vec", engine.Options{}, false},
		{"native-nlj", engine.Options{}, false},
		{"shard4-native", engine.Options{}, false},
		{"", engine.Options{}, false},
	} {
		got, err := engine.ByName(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ByName(%q) = %+v, %v; want %+v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

// tinyLibrary builds a small, fully hand-checkable bibliographic graph.
//
//	article1: creator alice, bob; issued 1950; journal j1
//	article2: creator alice;     issued 1951; journal j1
//	inproc1:  creator bob;       issued 1951
//	inproc2:  creator carol;     issued 1950; abstract "deep stuff"
//	citations: bag1(article1 -> article2), i.e. article2 is cited once
func tinyLibrary() *store.Store {
	s := store.New()
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.NewTriple(rdf.IRI(subj), rdf.IRI(pred), obj))
	}
	person := func(label, name string) rdf.Term {
		t := rdf.Blank(label)
		s.Add(rdf.NewTriple(t, rdf.IRI(rdf.RDFType), rdf.IRI(rdf.FOAFPerson)))
		s.Add(rdf.NewTriple(t, rdf.IRI(rdf.FOAFName), rdf.String(name)))
		return t
	}
	for _, c := range rdf.DocumentClasses {
		s.Add(rdf.NewTriple(rdf.IRI(c), rdf.IRI(rdf.RDFSSubClass), rdf.IRI(rdf.FOAFDocument)))
	}
	alice := person("alice", "Alice A")
	bob := person("bob", "Bob B")
	carol := person("carol", "Carol C")

	add("http://x/article1", rdf.RDFType, rdf.IRI(rdf.BenchArticle))
	s.Add(rdf.NewTriple(rdf.IRI("http://x/article1"), rdf.IRI(rdf.DCCreator), alice))
	s.Add(rdf.NewTriple(rdf.IRI("http://x/article1"), rdf.IRI(rdf.DCCreator), bob))
	add("http://x/article1", rdf.DCTermsIssued, rdf.Integer(1950))
	add("http://x/article1", rdf.SWRCJournal, rdf.IRI("http://x/j1"))
	add("http://x/article1", rdf.DCTitle, rdf.String("On Things"))

	add("http://x/article2", rdf.RDFType, rdf.IRI(rdf.BenchArticle))
	s.Add(rdf.NewTriple(rdf.IRI("http://x/article2"), rdf.IRI(rdf.DCCreator), alice))
	add("http://x/article2", rdf.DCTermsIssued, rdf.Integer(1951))
	add("http://x/article2", rdf.SWRCJournal, rdf.IRI("http://x/j1"))
	add("http://x/article2", rdf.DCTitle, rdf.String("More Things"))

	add("http://x/inproc1", rdf.RDFType, rdf.IRI(rdf.BenchInproceedings))
	s.Add(rdf.NewTriple(rdf.IRI("http://x/inproc1"), rdf.IRI(rdf.DCCreator), bob))
	add("http://x/inproc1", rdf.DCTermsIssued, rdf.Integer(1951))
	add("http://x/inproc1", rdf.DCTitle, rdf.String("Proceedings Things"))

	add("http://x/inproc2", rdf.RDFType, rdf.IRI(rdf.BenchInproceedings))
	s.Add(rdf.NewTriple(rdf.IRI("http://x/inproc2"), rdf.IRI(rdf.DCCreator), carol))
	add("http://x/inproc2", rdf.DCTermsIssued, rdf.Integer(1950))
	add("http://x/inproc2", rdf.DCTitle, rdf.String("Cited Things"))
	add("http://x/inproc2", rdf.BenchAbstract, rdf.String("deep stuff"))

	add("http://x/j1", rdf.RDFType, rdf.IRI(rdf.BenchJournal))
	add("http://x/j1", rdf.DCTitle, rdf.String("Journal 1 (1940)"))
	add("http://x/j1", rdf.DCTermsIssued, rdf.Integer(1940))

	// article1 references article2 via an rdf:Bag.
	bag := rdf.Blank("bag1")
	s.Add(rdf.NewTriple(rdf.IRI("http://x/article1"), rdf.IRI(rdf.DCTermsReferences), bag))
	s.Add(rdf.NewTriple(bag, rdf.IRI(rdf.RDFType), rdf.IRI(rdf.RDFBag)))
	s.Add(rdf.NewTriple(bag, rdf.IRI(rdf.BagMember(1)), rdf.IRI("http://x/article2")))

	s.Freeze()
	return s
}

// runAll runs src under every engine configuration and checks they agree,
// returning the rows of the last run.
func runAll(t *testing.T, s *store.Store, src string) *engine.Result {
	t.Helper()
	q, err := sparql.Parse(src, rdf.Prefixes)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var ref *engine.Result
	for _, opts := range allConfigs() {
		res, err := engine.New(s, opts).Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", opts.Name, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !sameResults(ref, res) {
			t.Fatalf("config %s disagrees:\nref: %v\ngot: %v",
				opts.Name, render(ref), render(res))
		}
	}
	return ref
}

func sameResults(a, b *engine.Result) bool {
	if a.Form != b.Form || a.Ask != b.Ask || len(a.Rows) != len(b.Rows) {
		return false
	}
	ra, rb := render(a), render(b)
	sort.Strings(ra)
	sort.Strings(rb)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

func render(r *engine.Result) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, t := range row {
			parts[i] = t.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func names(t *testing.T, res *engine.Result, col int) []string {
	t.Helper()
	var out []string
	for _, row := range res.Rows {
		out = append(out, row[col].Value)
	}
	sort.Strings(out)
	return out
}

func TestBGPJoin(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT ?name WHERE {
			?a rdf:type bench:Article .
			?a dc:creator ?p .
			?p foaf:name ?name
		}`)
	got := names(t, res, 0)
	want := []string{"Alice A", "Alice A", "Bob B"} // alice wrote two articles
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestConstantLookup(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT ?yr WHERE {
			?j rdf:type bench:Journal .
			?j dc:title "Journal 1 (1940)"^^xsd:string .
			?j dcterms:issued ?yr
		}`)
	if res.Len() != 1 || res.Rows[0][0].Value != "1940" {
		t.Fatalf("Q1 shape broken: %v", render(res))
	}
}

func TestMissingConstantYieldsEmpty(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT ?x WHERE { ?x dc:title "No Such Title"^^xsd:string }`)
	if res.Len() != 0 {
		t.Fatalf("expected empty result, got %v", render(res))
	}
}

func TestOptionalExtendsAndKeeps(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT ?i ?ab WHERE {
			?i rdf:type bench:Inproceedings
			OPTIONAL { ?i bench:abstract ?ab }
		}`)
	if res.Len() != 2 {
		t.Fatalf("expected both inproceedings, got %d", res.Len())
	}
	bound, unbound := 0, 0
	for _, row := range res.Rows {
		if row[1].IsZero() {
			unbound++
		} else {
			bound++
			if row[1].Value != "deep stuff" {
				t.Errorf("wrong abstract: %v", row[1])
			}
		}
	}
	if bound != 1 || unbound != 1 {
		t.Fatalf("bound=%d unbound=%d, want 1/1", bound, unbound)
	}
}

// TestNegationQ6Shape verifies the closed-world-negation encoding on a
// graph where the answer is hand-checkable: debut publications are those
// whose author has no earlier publication.
func TestNegationQ6Shape(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
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
		}`)
	// Debuts: article1 (alice 1950, bob 1950), inproc2 (carol 1950).
	// NOT article2 (alice published 1950 already), NOT inproc1 (bob 1950).
	got := names(t, res, 1)
	want := []string{"Alice A", "Bob B", "Carol C"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("debut authors = %v, want %v", got, want)
	}
	for _, row := range res.Rows {
		if row[0].Value != "1950" {
			t.Errorf("non-1950 debut: %v", render(res))
		}
	}
}

// TestDoubleNegationQ7Shape: titles of documents cited at least once but
// only by documents that are themselves cited. article2 is cited by
// article1, but article1 is uncited, so the result is empty.
func TestDoubleNegationQ7Shape(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT DISTINCT ?title WHERE {
			?class rdfs:subClassOf foaf:Document .
			?doc rdf:type ?class .
			?doc dc:title ?title .
			?bag2 ?member2 ?doc .
			?doc2 dcterms:references ?bag2
			OPTIONAL {
				?class3 rdfs:subClassOf foaf:Document .
				?doc3 rdf:type ?class3 .
				?doc3 dcterms:references ?bag3 .
				?bag3 ?member3 ?doc
				OPTIONAL {
					?class4 rdfs:subClassOf foaf:Document .
					?doc4 rdf:type ?class4 .
					?doc4 dcterms:references ?bag4 .
					?bag4 ?member4 ?doc3
				}
				FILTER (!bound(?doc4))
			}
			FILTER (!bound(?doc3))
		}`)
	if res.Len() != 0 {
		t.Fatalf("expected empty result (citer is uncited), got %v", render(res))
	}
}

// TestDoubleNegationPositive extends the citation graph so Q7 has one
// answer: make article1 itself cited, then article2 qualifies.
func TestDoubleNegationPositive(t *testing.T) {
	s := store.New()
	// Rebuild tinyLibrary unfrozen, plus inproc2 -> article1 citation.
	base := tinyLibrary()
	for _, tr := range base.Index(store.OrderSPO) {
		d := base.Dict()
		s.Add(rdf.NewTriple(d.Term(tr[0]), d.Term(tr[1]), d.Term(tr[2])))
	}
	bag2 := rdf.Blank("bag2")
	s.Add(rdf.NewTriple(rdf.IRI("http://x/inproc2"), rdf.IRI(rdf.DCTermsReferences), bag2))
	s.Add(rdf.NewTriple(bag2, rdf.IRI(rdf.RDFType), rdf.IRI(rdf.RDFBag)))
	s.Add(rdf.NewTriple(bag2, rdf.IRI(rdf.BagMember(1)), rdf.IRI("http://x/article1")))
	s.Freeze()

	res := runAll(t, s, `
		SELECT DISTINCT ?title WHERE {
			?class rdfs:subClassOf foaf:Document .
			?doc rdf:type ?class .
			?doc dc:title ?title .
			?bag2 ?member2 ?doc .
			?doc2 dcterms:references ?bag2
			OPTIONAL {
				?class3 rdfs:subClassOf foaf:Document .
				?doc3 rdf:type ?class3 .
				?doc3 dcterms:references ?bag3 .
				?bag3 ?member3 ?doc
				OPTIONAL {
					?class4 rdfs:subClassOf foaf:Document .
					?doc4 rdf:type ?class4 .
					?doc4 dcterms:references ?bag4 .
					?bag4 ?member4 ?doc3
				}
				FILTER (!bound(?doc4))
			}
			FILTER (!bound(?doc3))
		}`)
	// article2 is cited by article1; article1's only citer chain:
	// article1 is cited by inproc2, and inproc2 is uncited.
	// For doc=article2: doc3 candidates = citers of article2 that are
	// uncited-by-cited... the !bound(doc3) keeps docs whose citers are
	// all cited. article1 cites article2 and article1 IS cited (by
	// inproc2) and inproc2 is uncited => doc4 unbound => doc3=article1
	// survives the inner negation? No: inner OPTIONAL looks for a citer
	// of doc3=article1, finds inproc2... then FILTER(!bound(?doc4))
	// checks whether the citer of doc3 is itself cited: doc4 binds to a
	// citer of doc3. inproc2 cites article1 so doc4=inproc2 is bound =>
	// the inner filter rejects; article1 yields no doc3 binding =>
	// article2 qualifies.
	got := names(t, res, 0)
	want := []string{"More Things"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Q7 = %v, want %v", got, want)
	}
}

func TestUnion(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT DISTINCT ?predicate WHERE {
			{ ?person rdf:type foaf:Person . ?subject ?predicate ?person }
			UNION
			{ ?person rdf:type foaf:Person . ?person ?predicate ?object }
		}`)
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0].Value] = true
	}
	want := []string{rdf.DCCreator, rdf.RDFType, rdf.FOAFName}
	if len(got) != 3 {
		t.Fatalf("Q9 shape: got %d predicates %v, want 3", len(got), got)
	}
	for _, p := range want {
		if !got[p] {
			t.Errorf("missing predicate %s", p)
		}
	}
}

func TestFilterImplicitVsExplicitJoin(t *testing.T) {
	s := tinyLibrary()
	q5a := runAll(t, s, `
		SELECT DISTINCT ?person ?name WHERE {
			?article rdf:type bench:Article .
			?article dc:creator ?person .
			?inproc rdf:type bench:Inproceedings .
			?inproc dc:creator ?person2 .
			?person foaf:name ?name .
			?person2 foaf:name ?name2
			FILTER (?name = ?name2)
		}`)
	q5b := runAll(t, s, `
		SELECT DISTINCT ?person ?name WHERE {
			?article rdf:type bench:Article .
			?article dc:creator ?person .
			?inproc rdf:type bench:Inproceedings .
			?inproc dc:creator ?person .
			?person foaf:name ?name
		}`)
	// Bob wrote article1 and inproc1.
	if q5a.Len() != 1 || q5b.Len() != 1 {
		t.Fatalf("q5a=%d q5b=%d, want 1/1", q5a.Len(), q5b.Len())
	}
	if q5a.Rows[0][1].Value != "Bob B" {
		t.Fatalf("q5a person = %v", q5a.Rows[0][1])
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT ?title WHERE { ?d dc:title ?title } ORDER BY ?title LIMIT 2 OFFSET 1`)
	// All titles sorted: Cited, Journal 1 (1940), More, On, Proceedings
	want := []string{"Journal 1 (1940)", "More Things"}
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].Value)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestOrderByDesc(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT ?yr WHERE { ?d rdf:type bench:Article . ?d dcterms:issued ?yr } ORDER BY DESC(?yr)`)
	if res.Rows[0][0].Value != "1951" || res.Rows[1][0].Value != "1950" {
		t.Fatalf("descending order broken: %v", render(res))
	}
}

func TestOrderByNumericNotLexicographic(t *testing.T) {
	s := store.New()
	for i, yr := range []int{900, 1000, 99} {
		subj := rdf.IRI(fmt.Sprintf("http://x/d%d", i))
		s.Add(rdf.NewTriple(subj, rdf.IRI(rdf.DCTermsIssued), rdf.Integer(yr)))
	}
	s.Freeze()
	res := runAll(t, s, `SELECT ?yr WHERE { ?d dcterms:issued ?yr } ORDER BY ?yr`)
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].Value)
	}
	want := []string{"99", "900", "1000"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("numeric order = %v, want %v", got, want)
	}
}

func TestDistinct(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT DISTINCT ?p WHERE { ?a rdf:type bench:Article . ?a ?p ?o }`)
	seen := map[string]bool{}
	for _, row := range res.Rows {
		if seen[row[0].Value] {
			t.Fatalf("duplicate predicate %s", row[0].Value)
		}
		seen[row[0].Value] = true
	}
}

// TestDistinctProjectedSlots: DISTINCT keys on the projected variables
// only — one (packed key), two with an OPTIONAL-unbound value (unbound
// must stay distinct from every term), two plus a variable no pattern
// binds, and three (byte key) — and under every configuration it keeps
// exactly the distinct rows of the same query without DISTINCT.
func TestDistinctProjectedSlots(t *testing.T) {
	s := tinyLibrary()
	for _, tc := range []struct {
		vars, where string
		want        int
	}{
		{"?c", "?doc dc:creator ?c", 3},
		{"?c ?j", "?doc dc:creator ?c OPTIONAL { ?doc swrc:journal ?j }", 4},
		{"?c ?j ?nothing", "?doc dc:creator ?c OPTIONAL { ?doc swrc:journal ?j }", 4},
		{"?c ?j ?type", "?doc dc:creator ?c . ?doc rdf:type ?type OPTIONAL { ?doc swrc:journal ?j }", 4},
	} {
		all := runAll(t, s, "SELECT "+tc.vars+" WHERE { "+tc.where+" }")
		distinct := runAll(t, s, "SELECT DISTINCT "+tc.vars+" WHERE { "+tc.where+" }")
		want := map[string]bool{}
		for _, r := range render(all) {
			want[r] = true
		}
		got := render(distinct)
		if len(got) != tc.want || len(want) != tc.want {
			t.Fatalf("SELECT DISTINCT %s: %d rows (%d distinct without DISTINCT), want %d: %v",
				tc.vars, len(got), len(want), tc.want, got)
		}
		for _, r := range got {
			if !want[r] {
				t.Fatalf("SELECT DISTINCT %s: row %q is not a row of the query, or repeats", tc.vars, r)
			}
			delete(want, r)
		}
	}

	// IDs past one byte: keys must use every bit of every ID.
	wide := store.New()
	for i := 0; i < 600; i++ {
		wide.Add(rdf.NewTriple(rdf.IRI(fmt.Sprintf("http://x/s%d", i)), rdf.IRI("http://x/p"), rdf.IRI(fmt.Sprintf("http://x/o%d", i))))
	}
	wide.Freeze()
	for _, vars := range []string{"?s", "?s ?o", "?s ?p ?o"} {
		if n := runAll(t, wide, "SELECT DISTINCT "+vars+" WHERE { ?s ?p ?o }").Len(); n != 600 {
			t.Fatalf("SELECT DISTINCT %s over 600 distinct subjects: %d rows", vars, n)
		}
	}
}

func TestAsk(t *testing.T) {
	s := tinyLibrary()
	yes := runAll(t, s, `ASK { ?a rdf:type bench:Article }`)
	if !yes.Ask || yes.Len() != 1 {
		t.Fatal("ASK with matches must be yes")
	}
	no := runAll(t, s, `ASK { person:John_Q_Public rdf:type foaf:Person }`)
	if no.Ask || no.Len() != 0 {
		t.Fatal("ASK without matches must be no")
	}
}

func TestObjectBoundAccess(t *testing.T) {
	// The Q10 access pattern: only the object is bound.
	res := runAll(t, tinyLibrary(), `SELECT ?s ?p WHERE { ?s ?p "Journal 1 (1940)"^^xsd:string }`)
	if res.Len() != 1 {
		t.Fatalf("object-bound access: %v", render(res))
	}
}

func TestRepeatedVariableInPattern(t *testing.T) {
	s := store.New()
	s.Add(rdf.NewTriple(rdf.IRI("http://x/a"), rdf.IRI("http://x/p"), rdf.IRI("http://x/a")))
	s.Add(rdf.NewTriple(rdf.IRI("http://x/a"), rdf.IRI("http://x/p"), rdf.IRI("http://x/b")))
	s.Freeze()
	res := runAll(t, s, `SELECT ?x WHERE { ?x <http://x/p> ?x }`)
	if res.Len() != 1 || res.Rows[0][0] != rdf.IRI("http://x/a") {
		t.Fatalf("self-loop pattern: %v", render(res))
	}
}

// TestVariableFreePatterns: a BGP of constant patterns binds no
// variable, so its batches have no columns, yet they still carry the
// one empty solution (or none).
func TestVariableFreePatterns(t *testing.T) {
	s := tinyLibrary()
	yes := runAll(t, s, `SELECT * WHERE { <http://x/article1> rdf:type bench:Article . <http://x/j1> rdf:type bench:Journal }`)
	no := runAll(t, s, `SELECT * WHERE { <http://x/article1> rdf:type bench:Journal . <http://x/j1> rdf:type bench:Journal }`)
	if yes.Len() != 1 || no.Len() != 0 {
		t.Fatalf("got %d and %d solutions, want 1 and 0", yes.Len(), no.Len())
	}
}

func TestUnboundProjection(t *testing.T) {
	res := runAll(t, tinyLibrary(), `SELECT ?a ?nothing WHERE { ?a rdf:type bench:Article }`)
	for _, row := range res.Rows {
		if !row[1].IsZero() {
			t.Fatal("never-bound projected variable must be unbound")
		}
	}
}

func TestFilterUnboundVarRejects(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT ?a WHERE { ?a rdf:type bench:Article FILTER (?ghost = 1) }`)
	if res.Len() != 0 {
		t.Fatal("filter over unbound variable must reject everything")
	}
}

func TestCountMatchesQuery(t *testing.T) {
	s := tinyLibrary()
	q, _ := sparql.Parse(`SELECT ?p ?n WHERE { ?p foaf:name ?n }`, rdf.Prefixes)
	eng := engine.New(s, engine.Native())
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

func TestCancellation(t *testing.T) {
	s := tinyLibrary()
	// A heavy cross product so cancellation has something to interrupt.
	q, _ := sparql.Parse(`
		SELECT ?a ?b ?c ?d WHERE { ?a ?p1 ?x . ?b ?p2 ?y . ?c ?p3 ?z . ?d ?p4 ?w }`,
		rdf.Prefixes)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := engine.New(s, engine.Mem()).Count(ctx, q)
	if !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// cancelOnTerm cancels the query's context on the first term the
// engine resolves, as a deadline expiring mid-query would. When
// resolved is set, it counts every term resolved.
type cancelOnTerm struct {
	store.Reader
	cancel   context.CancelFunc
	resolved *atomic.Int64
}

func (r cancelOnTerm) TermDict() store.TermSource {
	return cancelDict{r.Reader.TermDict(), r.cancel, r.resolved}
}

type cancelDict struct {
	store.TermSource
	cancel   context.CancelFunc
	resolved *atomic.Int64
}

func (d cancelDict) Term(id store.ID) rdf.Term {
	d.cancel()
	if d.resolved != nil {
		d.resolved.Add(1)
	}
	return d.TermSource.Term(id)
}

// TestCountCancelledMidRun: a Count whose context is cancelled while
// its batches run stops at the next batch with ErrCancelled, instead of
// counting on to the end (the operators' own checks come round only
// every 1024th batch).
func TestCountCancelledMidRun(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	// A full scan (about ten batches) whose filter resolves every object.
	q, _ := sparql.Parse(`SELECT ?s WHERE { ?s ?p ?o FILTER (?o != "none") }`, rdf.Prefixes)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n, err := engine.NewReader(cancelOnTerm{Reader: s, cancel: cancel}, engine.Native()).Count(ctx, q)
	if !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("Count = %d, %v; want ErrCancelled", n, err)
	}
}

// TestOrderByCancelledMidRun: an ORDER BY drains its whole input before
// it yields a row, resolving each row's sort key as it goes. Cancelled
// while it drains, it must stop at the end of the batch in hand, not
// sort on to the end of its input.
func TestOrderByCancelledMidRun(t *testing.T) {
	s, _ := generatedStore(t, 50_000)
	for _, text := range []string{
		`SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o`,
		`SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 10`,
	} {
		q, err := sparql.Parse(text, rdf.Prefixes)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var resolved atomic.Int64
		rows, err := engine.NewReader(cancelOnTerm{Reader: s, cancel: cancel, resolved: &resolved}, engine.Native()).Select(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
		cancel()
		if !errors.Is(err, engine.ErrCancelled) {
			t.Fatalf("%s: Err = %v, want ErrCancelled", text, err)
		}
		// One sort key per row, and the first one cancels: at most the
		// batch in hand.
		if n := resolved.Load(); n > engine.DefaultBatchSize {
			t.Errorf("%s: %d terms resolved, want at most %d (one batch)", text, n, engine.DefaultBatchSize)
		}
	}
}

func TestExplainMentionsReordering(t *testing.T) {
	s := tinyLibrary()
	q, _ := sparql.Parse(`
		SELECT ?name WHERE {
			?p foaf:name ?name .
			?a dc:creator ?p .
			?a dc:title "On Things"^^xsd:string
		}`, rdf.Prefixes)
	plan, err := engine.New(s, engine.Native()).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "engine=native") {
		t.Errorf("explain output missing engine name: %s", plan)
	}
	// The selective title pattern should move to the front.
	if !strings.Contains(plan, "reordered") {
		t.Errorf("expected reordering note in plan: %s", plan)
	}
}

func TestEmptyStoreQueries(t *testing.T) {
	s := store.New()
	s.Freeze()
	res := runAll(t, s, `SELECT ?x WHERE { ?x ?p ?o }`)
	if res.Len() != 0 {
		t.Fatal("empty store must yield no solutions")
	}
	ask := runAll(t, s, `ASK { ?x ?p ?o }`)
	if ask.Ask {
		t.Fatal("ASK on empty store must be no")
	}
}

func TestFilterPushingSemanticsPreserved(t *testing.T) {
	// A conjunct whose variables appear in different patterns: pushing
	// must not change results. (Checked by runAll's all-config sweep.)
	runAll(t, tinyLibrary(), `
		SELECT ?a1 ?a2 WHERE {
			?a1 rdf:type bench:Article .
			?a1 dcterms:issued ?y1 .
			?a2 rdf:type bench:Article .
			?a2 dcterms:issued ?y2
			FILTER (?y1 < ?y2)
		}`)
}

func TestOptionalReferencingOuterVariable(t *testing.T) {
	// Correlated OPTIONAL: the right side shares ?a with the left. The
	// hash-left-join path must not fire here; all configs must agree.
	res := runAll(t, tinyLibrary(), `
		SELECT ?a ?t WHERE {
			?a rdf:type bench:Article
			OPTIONAL { ?a dc:title ?t }
		}`)
	if res.Len() != 2 {
		t.Fatalf("expected 2 articles, got %d", res.Len())
	}
	for _, row := range res.Rows {
		if row[1].IsZero() {
			t.Fatal("both articles have titles; OPTIONAL must bind them")
		}
	}
}

func TestUnionBranchBindingDisjointVars(t *testing.T) {
	res := runAll(t, tinyLibrary(), `
		SELECT ?j ?i WHERE {
			{ ?j rdf:type bench:Journal } UNION { ?i rdf:type bench:Inproceedings }
		}`)
	if res.Len() != 3 { // 1 journal + 2 inproceedings
		t.Fatalf("union rows = %d, want 3", res.Len())
	}
	for _, row := range res.Rows {
		bound := 0
		if !row[0].IsZero() {
			bound++
		}
		if !row[1].IsZero() {
			bound++
		}
		if bound != 1 {
			t.Fatalf("each union row must bind exactly one branch var: %v", render(res))
		}
	}
}
