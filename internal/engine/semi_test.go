package engine_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// semiConfigs are the batch configurations a semi-join stage must agree
// with mem under: the served one, batches of seven rows so that memo
// hits and misses straddle batch boundaries, and four forced partitions,
// each with its own memo.
func semiConfigs() []engine.Options {
	batch7 := engine.Native()
	batch7.Name, batch7.BatchSize = "native-batch7", 7
	return []engine.Options{engine.Native(), batch7, parallel4()[0]}
}

// semiCases is the eligibility table: how many of a query's BGPs run
// their trailing dead-variable stages as a semi-join stage.
var semiCases = []struct {
	name, query string
	semis       int
}{
	{"q5a", paperQuery("q5a"), 1},
	{"q5b", paperQuery("q5b"), 1},
	{"q12a", paperQuery("q12a"), 1},
	{"distinct-dead-creator", `SELECT DISTINCT ?person ?name WHERE {
		?person foaf:name ?name . ?doc dc:creator ?person }`, 1},
	{"union-of-eligible", `SELECT DISTINCT ?person WHERE {
		{ ?person foaf:name ?name . ?doc dc:creator ?person }
		UNION { ?person rdf:type foaf:Person . ?doc swrc:editor ?person } }`, 2},
	{"plain-select", `SELECT ?person ?name WHERE {
		?person foaf:name ?name . ?doc dc:creator ?person }`, 0},
	{"distinct-star", `SELECT DISTINCT * WHERE {
		?person foaf:name ?name . ?doc dc:creator ?person }`, 0},
	{"order-by-dead", `SELECT DISTINCT ?person ?name WHERE {
		?person foaf:name ?name . ?doc dc:creator ?person } ORDER BY ?doc`, 0},
	{"filter-over-optional-reads-dead", `SELECT DISTINCT ?person WHERE {
		?person foaf:name ?name . ?doc dc:creator ?person
		OPTIONAL { ?person foaf:mbox ?mbox }
		FILTER (?doc != <http://localhost/nothing>) }`, 0},
	{"q4", paperQuery("q4"), 0},
	{"q9", paperQuery("q9"), 0},
}

func paperQuery(id string) string {
	q, _ := queries.ByID(id)
	return q.Text
}

// TestSemiJoinEligibility holds the semi-join rule to its table on a
// 10k document, and every case to mem's solutions on a 5k document,
// where Q5a and Q5b have answers and mem computes them in test time
// (at 10k it cannot: testutil.MemTooSlow10k). Where the rule applies is
// a property of the query alone, so both documents must agree on it.
// Q4, which mem takes over a minute to answer even at 5k, is held to
// native-nlj instead, as TestOperatorChoicesAgreeOn17Queries does; its
// plan has no semi stage.
func TestSemiJoinEligibility(t *testing.T) {
	large, _ := generatedStore(t, 10_000)
	small, _ := generatedStore(t, 5_000)
	for _, tc := range semiCases {
		q, err := sparql.Parse(tc.query, rdf.Prefixes)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, s := range []*store.Store{large, small} {
			for _, opts := range semiConfigs() {
				plan, err := engine.New(s, opts).Explain(q)
				if err != nil {
					t.Fatalf("%s/%s: %v", opts.Name, tc.name, err)
				}
				if got := strings.Count(plan, "semi["); got != tc.semis {
					t.Errorf("%s/%s at %d triples: %d semi stages, want %d:\n%s", opts.Name, tc.name, s.Len(), got, tc.semis, plan)
				}
			}
		}
		ref := engine.Mem()
		if tc.name == "q4" {
			ref = operatorVariants()[0]
		}
		want := renderEngine(t, small, ref, q)
		for _, opts := range semiConfigs() {
			if got := renderEngine(t, small, opts, q); !slices.Equal(got, want) {
				t.Errorf("%s/%s: %d solutions, %s has %d", opts.Name, tc.name, len(got), ref.Name, len(want))
			}
		}
	}
}

// TestSemiJoinOverLiveDelta runs Q5b over MVCC snapshots with a live
// delta. The store has no delete, so the deletion is the base: the 5k
// document minus the article links of one of Q5b's authors, under a
// delta holding an unrelated person. Q5b must lack the author there,
// and must list the author again once a commit inserts one link, the
// author's only one; each answer equals mem's over the same snapshot.
func TestSemiJoinOverLiveDelta(t *testing.T) {
	full, _ := generatedStore(t, 5_000)
	q := sparql.MustParse(paperQuery("q5b"), rdf.Prefixes)
	links, author := articleLinks(t, full, q)

	dict := full.Dict()
	base := store.New()
	for _, tr := range full.Index(store.OrderSPO) {
		if !slices.Contains(links, tr) {
			base.Add(rdf.NewTriple(dict.Term(tr[0]), dict.Term(tr[1]), dict.Term(tr[2])))
		}
	}
	link := links[0]
	live := mvcc.New(base, mvcc.MergePolicy{Disabled: true})
	t.Cleanup(live.Close)
	stranger := rdf.IRI("urn:stranger")
	live.Apply([]rdf.Triple{rdf.NewTriple(stranger, rdf.IRI(rdf.FOAFName), rdf.String("Stranger"))})
	linkTriple := rdf.NewTriple(dict.Term(link[0]), dict.Term(link[1]), dict.Term(link[2]))

	for _, step := range []struct {
		name   string
		commit []rdf.Triple
		listed bool
	}{{"deleted", nil, false}, {"reinserted", []rdf.Triple{linkTriple}, true}} {
		if step.commit != nil {
			live.Apply(step.commit)
		}
		snap := live.Snapshot()
		if snap.DeltaLen() == 0 {
			t.Fatalf("%s: the snapshot has no delta", step.name)
		}
		want := renderResult(t, engine.NewReader(snap, engine.Mem()), q)
		if got := slices.ContainsFunc(want, func(row string) bool { return strings.HasPrefix(row, author+"|") }); got != step.listed {
			t.Errorf("%s: mem lists %s: %v, want %v", step.name, author, got, step.listed)
		}
		for _, opts := range semiConfigs() {
			eng := engine.NewReader(snap, opts)
			plan, err := eng.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "semi[") {
				t.Errorf("%s/%s: no semi stage over the snapshot:\n%s", step.name, opts.Name, plan)
			}
			if got := renderResult(t, eng, q); !slices.Equal(got, want) {
				t.Errorf("%s/%s: %d solutions, mem has %d", step.name, opts.Name, len(got), len(want))
			}
		}
		snap.Close()
	}
}

// articleLinks returns the dc:creator triples linking the first author
// Q5b lists to articles, and that author as Q5b's rendering prints it.
func articleLinks(t *testing.T, s *store.Store, q5b *sparql.Query) ([]store.EncTriple, string) {
	t.Helper()
	dict := s.Dict()
	id := func(iri string) store.ID {
		v, ok := dict.Lookup(rdf.IRI(iri))
		if !ok {
			t.Fatalf("%s is not in the document", iri)
		}
		return v
	}
	typ, article, creator := id(rdf.RDFType), id(rdf.BenchArticle), id(rdf.DCCreator)
	res, err := engine.New(s, engine.Native()).Query(context.Background(), q5b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("Q5b has no answer to take an author from")
	}
	person, ok := dict.Lookup(res.Rows[0][0])
	if !ok {
		t.Fatalf("unknown person %s", res.Rows[0][0])
	}
	var links []store.EncTriple
	for it := store.Range(s, store.NoID, creator, person).Iterator(); ; {
		tr, ok := it.Next()
		if !ok {
			break
		}
		if store.Count(s, tr[0], typ, article) > 0 {
			links = append(links, tr)
		}
	}
	return links, res.Rows[0][0].String()
}
