package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// randomGraph builds a small random graph over a closed vocabulary so
// that patterns have a realistic chance of matching.
func randomGraph(r *rand.Rand, n int) *store.Store {
	s := store.New()
	subj := func() rdf.Term {
		if r.Intn(4) == 0 {
			return rdf.Blank(fmt.Sprintf("b%d", r.Intn(5)))
		}
		return rdf.IRI(fmt.Sprintf("http://x/s%d", r.Intn(6)))
	}
	pred := func() rdf.Term { return rdf.IRI(fmt.Sprintf("http://x/p%d", r.Intn(4))) }
	obj := func() rdf.Term {
		switch r.Intn(4) {
		case 0:
			return rdf.Integer(r.Intn(5))
		case 1:
			return rdf.String(fmt.Sprintf("v%d", r.Intn(4)))
		case 2:
			return rdf.Blank(fmt.Sprintf("b%d", r.Intn(5)))
		default:
			return rdf.IRI(fmt.Sprintf("http://x/s%d", r.Intn(6)))
		}
	}
	for i := 0; i < n; i++ {
		s.Add(rdf.NewTriple(subj(), pred(), obj()))
	}
	s.Freeze()
	return s
}

// randomQuery assembles a random query from the constructs the benchmark
// exercises: BGPs, OPTIONAL, UNION, FILTER, DISTINCT, ORDER BY, LIMIT.
func randomQuery(r *rand.Rand) string {
	varName := func() string { return fmt.Sprintf("?v%d", r.Intn(5)) }
	term := func() string {
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("<http://x/s%d>", r.Intn(6))
		case 1:
			return fmt.Sprintf(`"v%d"^^xsd:string`, r.Intn(4))
		case 2:
			return fmt.Sprintf("%d", r.Intn(5))
		default:
			return varName()
		}
	}
	pattern := func() string {
		p := fmt.Sprintf("<http://x/p%d>", r.Intn(4))
		if r.Intn(3) == 0 {
			p = varName()
		}
		return fmt.Sprintf("%s %s %s .", varName(), p, term())
	}
	var b strings.Builder
	patterns := 1 + r.Intn(3)
	for i := 0; i < patterns; i++ {
		b.WriteString(pattern())
		b.WriteString("\n")
	}
	if r.Intn(2) == 0 {
		b.WriteString("OPTIONAL { " + pattern())
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, " FILTER (%s = %s)", varName(), varName())
		}
		b.WriteString(" }\n")
	}
	if r.Intn(3) == 0 {
		b.WriteString("{ " + pattern() + " } UNION { " + pattern() + " }\n")
	}
	if r.Intn(2) == 0 {
		ops := []string{"=", "!=", "<", ">", "<=", ">="}
		fmt.Fprintf(&b, "FILTER (%s %s %s)\n", varName(), ops[r.Intn(len(ops))], term())
	}
	if r.Intn(4) == 0 {
		fmt.Fprintf(&b, "FILTER (!bound(%s))\n", varName())
	}
	distinct := ""
	if r.Intn(2) == 0 {
		distinct = "DISTINCT "
	}
	q := fmt.Sprintf("SELECT %s?v0 ?v1 ?v2 WHERE {\n%s}", distinct, b.String())
	if r.Intn(3) == 0 {
		q += " ORDER BY ?v0 ?v1 ?v2"
		if r.Intn(2) == 0 {
			q += fmt.Sprintf(" LIMIT %d OFFSET %d", 1+r.Intn(5), r.Intn(3))
		}
	}
	return q
}

// TestEngineEquivalenceProperty: every operator configuration returns
// an answer the oracle allows on random graphs and random queries. This
// is the central soundness property: optimizations must be invisible.
func TestEngineEquivalenceProperty(t *testing.T) {
	checkRandomQueries(t, 7, 300, 30, 60)
}

// TestEnginesMatchOracleProperty is TestEngineEquivalenceProperty over
// another seed and smaller graphs, where fewer patterns match and
// OPTIONALs and FILTERs more often meet unbound variables.
func TestEnginesMatchOracleProperty(t *testing.T) {
	checkRandomQueries(t, 23, 150, 25, 30)
}

// checkRandomQueries holds every operator configuration to the oracle
// on n random queries (a fifth of them under -short), each over a
// random graph of minSize to minSize+spread-1 triples.
func checkRandomQueries(t *testing.T, seed int64, n, minSize, spread int) {
	r := rand.New(rand.NewSource(seed))
	if testing.Short() {
		n /= 5
	}
	for i := 0; i < n; i++ {
		s := randomGraph(r, minSize+r.Intn(spread))
		src := randomQuery(r)
		q, err := sparql.Parse(src, rdf.Prefixes)
		if err != nil {
			t.Fatalf("iteration %d: generated unparsable query %q: %v", i, src, err)
		}
		want := oracleOf(s).answer(q)
		for _, opts := range operatorVariants() {
			res, err := engine.New(s, opts).Query(context.Background(), q)
			if err != nil {
				t.Fatalf("iteration %d, config %s, query %q: %v", i, opts.Name, src, err)
			}
			if err := want.allows(res); err != nil {
				t.Fatalf("iteration %d: %s disagrees with the oracle: %v\nquery: %s", i, opts.Name, err, src)
			}
		}
	}
}

// TestOrderByIsSortedProperty: ORDER BY output is sorted according to the
// SPARQL term ordering (the oracle's, SPARQL §15.1), under every
// operator configuration.
func TestOrderByIsSortedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		s := randomGraph(r, 50)
		q, err := sparql.Parse(`SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o`, rdf.Prefixes)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range operatorVariants() {
			res, err := engine.New(s, opts).Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for j := 1; j < len(res.Rows); j++ {
				a, b := res.Rows[j-1][0], res.Rows[j][0]
				if totalOrder(a, b) > 0 {
					t.Fatalf("iteration %d (%s): rows %d,%d out of order: %v > %v",
						i, opts.Name, j-1, j, a, b)
				}
			}
		}
	}
}

// TestDistinctNoDuplicatesProperty: DISTINCT output never contains two
// identical rows, under any operator configuration.
func TestDistinctNoDuplicatesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		s := randomGraph(r, 60)
		q, err := sparql.Parse(`SELECT DISTINCT ?s ?o WHERE { ?s ?p ?o }`, rdf.Prefixes)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range operatorVariants() {
			res, err := engine.New(s, opts).Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, row := range render(res) {
				if seen[row] {
					t.Fatalf("iteration %d (%s): duplicate row %s", i, opts.Name, row)
				}
				seen[row] = true
			}
		}
	}
}

// TestAskConsistentWithSelectProperty: ASK answers yes exactly when the
// SELECT form has at least one solution.
func TestAskConsistentWithSelectProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 80; i++ {
		s := randomGraph(r, 40)
		body := fmt.Sprintf("{ ?v0 <http://x/p%d> ?v1 . ?v1 ?p ?v2 }", r.Intn(4))
		sel, err := sparql.Parse("SELECT ?v0 WHERE "+body, rdf.Prefixes)
		if err != nil {
			t.Fatal(err)
		}
		ask, err := sparql.Parse("ASK "+body, rdf.Prefixes)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(s, engine.Native())
		n, err := eng.Count(context.Background(), sel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(context.Background(), ask)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ask != (n > 0) {
			t.Fatalf("iteration %d: ASK=%v but SELECT has %d rows", i, res.Ask, n)
		}
	}
}

// TestSliceWindowProperty: LIMIT/OFFSET return exactly the requested
// window of the ordered result.
func TestSliceWindowProperty(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 40; i++ {
		s := randomGraph(r, 50)
		full, err := sparql.Parse(`SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?s ?o`, rdf.Prefixes)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(s, engine.Native())
		fullRes, err := eng.Query(context.Background(), full)
		if err != nil {
			t.Fatal(err)
		}
		limit, offset := 1+r.Intn(8), r.Intn(8)
		sliced, err := sparql.Parse(fmt.Sprintf(
			`SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?s ?o LIMIT %d OFFSET %d`, limit, offset),
			rdf.Prefixes)
		if err != nil {
			t.Fatal(err)
		}
		slicedRes, err := eng.Query(context.Background(), sliced)
		if err != nil {
			t.Fatal(err)
		}
		want := len(fullRes.Rows) - offset
		if want < 0 {
			want = 0
		}
		if want > limit {
			want = limit
		}
		if len(slicedRes.Rows) != want {
			t.Fatalf("iteration %d: slice returned %d rows, want %d (full=%d limit=%d offset=%d)",
				i, len(slicedRes.Rows), want, len(fullRes.Rows), limit, offset)
		}
	}
}
