package engine_test

import (
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
)

// flattenCases is the join-of-groups table: how many BGPs the batch path
// flattens a query's explicit join of groups into, 0 where it declines
// and the query runs on the tuple operators.
var flattenCases = []struct {
	name, query string
	bgps        int
}{
	{"q8", paperQuery("q8"), 2},
	{"q12b", paperQuery("q12b"), 2},
	{"join-of-two-unions", `SELECT ?person ?doc WHERE {
		{ ?person foaf:name ?name } UNION { ?person rdf:type foaf:Person }
		{ ?doc dc:creator ?person } UNION { ?doc swrc:editor ?person } }`, 4},
	{"nested-join", `SELECT ?doc ?name WHERE {
		?doc dc:creator ?person
		{ ?person foaf:name ?name { ?doc rdf:type bench:Article } FILTER (?doc != ?person) } }`, 1},
	{"optional-in-a-group", `SELECT ?person ?doc WHERE {
		{ ?person foaf:name ?name OPTIONAL { ?person foaf:homepage ?page } }
		{ ?doc dc:creator ?person } }`, 0},
	{"conjunct-reads-the-other-side", `SELECT ?person ?doc WHERE {
		?person foaf:name ?name
		{ ?doc dc:creator ?person FILTER (?name != "Paul Erdoes"^^xsd:string) } }`, 0},
	{"empty-group", `SELECT ?person WHERE { ?person foaf:name ?name {} }`, 0},
}

// TestJoinOfGroupsFlattens holds the batch path's flattening of explicit
// joins of groups to its table on a 10k document — the number of BGP
// chains, or the "explicit join of groups" fallback — and every case's
// answer to the oracle's on a 5k document under the semi-join
// configurations (served, seven-row batches, four partitions).
func TestJoinOfGroupsFlattens(t *testing.T) {
	large, _ := generatedStore(t, 10_000)
	small, _ := generatedStore(t, 5_000)
	o := oracleOf(small)
	for _, tc := range flattenCases {
		q, err := sparql.Parse(tc.query, rdf.Prefixes)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, opts := range semiConfigs() {
			plan, err := engine.New(large, opts).Explain(q)
			if err != nil {
				t.Fatalf("%s/%s: %v", opts.Name, tc.name, err)
			}
			declined := strings.Contains(plan, "vec: tuple fallback (explicit join of groups)")
			if declined != (tc.bgps == 0) {
				t.Errorf("%s/%s: declined = %v, want %v:\n%s", opts.Name, tc.name, declined, tc.bgps == 0, plan)
			}
			if got := strings.Count(plan, "vec operators:"); tc.bgps > 0 && got != tc.bgps {
				t.Errorf("%s/%s: %d BGP chains, want %d:\n%s", opts.Name, tc.name, got, tc.bgps, plan)
			}
		}
		want := o.answer(q)
		if tc.name == "q8" && len(want.rows()) == 0 {
			t.Fatal("q8 has no answer at 5k: the check would be vacuous")
		}
		agree(t, want, small, q, tc.name, semiConfigs()...)
	}
}
