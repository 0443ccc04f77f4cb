package engine_test

import (
	"sort"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// runBindJoin is runAll for a query whose OPTIONAL sits in the right
// group of an explicit join that does not flatten: it first checks
// that native's EXPLAIN runs the join as a bind join, whose right side
// is re-opened per left row, and that the OPTIONAL inside it is the
// hash left join, with wantNote naming whether a hash key was
// extracted. The bind forms below put a pattern of the OPTIONAL's left
// side in a group of its own in front, which changes no solution.
func runBindJoin(t *testing.T, s *store.Store, src, wantNote string) *engine.Result {
	t.Helper()
	plan, err := engine.New(s, engine.Native()).Explain(sparql.MustParse(src, rdf.Prefixes))
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	for _, want := range []string{"join: vectorized bind", wantNote} {
		if !strings.Contains(plan, want) {
			t.Fatalf("native plan misses %q:\n%s", want, plan)
		}
	}
	return runAll(t, s, src)
}

const (
	hashKeyed   = "leftjoin: vectorized hash (hash key: true)"
	hashKeyless = "leftjoin: vectorized hash (hash key: false)"
)

// TestHashLeftJoinValueEquality pins the fix for an under-inclusion bug
// in the materialized OPTIONAL path: when the hash left join extracts a
// cross-side `FILTER(?l = ?r)` key, the right rows were hashed by
// dictionary ID and probed by the left row's ID. Dictionary IDs are
// term identity, so value-equal terms with distinct lexical forms
// ("1940" vs "01940", both xsd:integer) landed in different buckets and
// the extension was silently dropped — while every bind-join
// configuration, evaluating the same FILTER through EqualTerms, kept
// it. The hash now buckets both sides by the canonical value key
// (valueKey) and re-checks the retained conjunct, so all configurations
// must agree again (runAll enforces that). The hash left join is
// covered at the top of the plan and, in the bind form, re-built per
// row inside a bind join's right side.
func TestHashLeftJoinValueEquality(t *testing.T) {
	s := store.New()
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.NewTriple(rdf.IRI(subj), rdf.IRI(pred), obj))
	}
	// The article's year and the journal's year are value-equal but
	// lexically distinct, so they intern to different dictionary IDs.
	add("http://x/article1", rdf.RDFType, rdf.IRI(rdf.BenchArticle))
	add("http://x/article1", rdf.DCTermsIssued, rdf.Integer(1940))
	add("http://x/j1", rdf.RDFType, rdf.IRI(rdf.BenchJournal))
	add("http://x/j1", rdf.DCTermsIssued, rdf.TypedLiteral("01940", rdf.XSDInteger))
	add("http://x/j1", rdf.DCTitle, rdf.String("Journal 1"))
	// A second journal whose year genuinely differs: it must extend
	// nothing, under every configuration.
	add("http://x/j2", rdf.RDFType, rdf.IRI(rdf.BenchJournal))
	add("http://x/j2", rdf.DCTermsIssued, rdf.Integer(2001))
	add("http://x/j2", rdf.DCTitle, rdf.String("Journal 2"))
	s.Freeze()

	// The OPTIONAL block shares no variable with the outer pattern —
	// the FILTER is the only link — so hash-left-join configurations
	// materialize the right side and key it on ?year = ?jyear.
	const optional = `
			?article rdf:type bench:Article .
			?article dcterms:issued ?year .
			OPTIONAL {
				?journal rdf:type bench:Journal .
				?journal dcterms:issued ?jyear .
				?journal dc:title ?jtitle .
				FILTER (?year = ?jyear)
			}`
	checkValueEqualExtension(t, runAll(t, s, `SELECT ?article ?year ?jtitle WHERE {`+optional+`}`))
	checkValueEqualExtension(t, runBindJoin(t, s, `SELECT ?article ?year ?jtitle WHERE {
		{ ?article rdf:type bench:Article } {`+optional+`} }`, hashKeyed))
}

func checkValueEqualExtension(t *testing.T, res *engine.Result) {
	t.Helper()
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1: %v", len(res.Rows), render(res))
	}
	row := map[string]rdf.Term{}
	for i, v := range res.Vars {
		row[v] = res.Rows[0][i]
	}
	title := row["jtitle"]
	if title == (rdf.Term{}) {
		t.Fatalf("OPTIONAL dropped the value-equal extension (\"1940\" vs \"01940\"): %v", render(res))
	}
	if title.Value != "Journal 1" {
		t.Fatalf("extended with the wrong journal: %v", render(res))
	}
}

// TestValueKeySignedZero pins the value key's numeric class on the one
// pair whose lexical renderings differ even after parsing: "-0" parses
// to negative zero, which `=` calls equal to 0. A key rendered from the
// float as text ("-0" vs "0") put the two in different buckets, and
// every hash configuration silently dropped the extension the
// evaluator keeps. Both value-keyed shapes are covered: the OPTIONAL
// whose condition links the sides (the hash left join, also inside a
// bind join's right side) and the disconnected block linked by an
// equality FILTER (hashseg).
func TestValueKeySignedZero(t *testing.T) {
	s := store.New()
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.NewTriple(rdf.IRI(subj), rdf.IRI(pred), obj))
	}
	add("http://x/a", "http://x/p", rdf.Integer(0))
	add("http://x/b", "http://x/q", rdf.TypedLiteral("-0", rdf.XSDInteger))
	add("http://x/b", "http://x/title", rdf.String("B"))
	add("http://x/c", "http://x/q", rdf.Integer(1))
	add("http://x/c", "http://x/title", rdf.String("C"))
	s.Freeze()

	const optional = `
			?s <http://x/p> ?a .
			OPTIONAL {
				?t <http://x/q> ?b .
				?t <http://x/title> ?title .
				FILTER (?a = ?b)
			}`
	for _, res := range []*engine.Result{
		runAll(t, s, `SELECT ?s ?title WHERE {`+optional+`}`),
		runBindJoin(t, s, `SELECT ?s ?title WHERE { { ?s <http://x/p> ?a } {`+optional+`} }`, hashKeyed),
	} {
		if got := render(res); len(got) != 1 || got[0] != `<http://x/a>|"B"^^<`+rdf.XSDString+`>` {
			t.Fatalf("OPTIONAL: got %v, want a extended by b (0 = -0)", got)
		}
	}

	res := runAll(t, s, `
		SELECT ?s ?t WHERE { ?s <http://x/p> ?a . ?t <http://x/q> ?b FILTER (?a = ?b) }`)
	if got := render(res); len(got) != 1 || got[0] != "<http://x/a>|<http://x/b>" {
		t.Fatalf("hashseg: got %v, want the single pair (a, b)", got)
	}
}

// TestHashLeftJoinVariableFreeRight: a conditioned OPTIONAL whose right
// side binds no variable still has solutions — two here, one per UNION
// branch — and every configuration must extend a matching left row once
// per solution. The materialized right side holds zero-width rows, which
// must still count as rows, also inside a bind join's right side.
func TestHashLeftJoinVariableFreeRight(t *testing.T) {
	s := store.New()
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.NewTriple(rdf.IRI(subj), rdf.IRI(pred), obj))
	}
	add("http://x/a", "http://x/p", rdf.Integer(1))
	add("http://x/b", "http://x/p", rdf.Integer(2))
	add("http://x/c", "http://x/q", rdf.IRI("http://x/d"))
	add("http://x/e", "http://x/q", rdf.IRI("http://x/f"))
	s.Freeze()

	const optional = `
			?s <http://x/p> ?o .
			OPTIONAL {
				{ <http://x/c> <http://x/q> <http://x/d> } UNION { <http://x/e> <http://x/q> <http://x/f> }
				FILTER (?o = 1)
			}`
	for _, res := range []*engine.Result{
		runAll(t, s, `SELECT ?s WHERE {`+optional+`}`),
		runBindJoin(t, s, `SELECT ?s WHERE { { ?s <http://x/p> ?o } {`+optional+`} }`, hashKeyless),
	} {
		got := render(res)
		sort.Strings(got)
		want := []string{"<http://x/a>", "<http://x/a>", "<http://x/b>"}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
