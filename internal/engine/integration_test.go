package engine_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/queries"
	"sp2bench/internal/store"
)

// generatedStore produces a seeded benchmark document of the given size
// and loads it.
func generatedStore(t testing.TB, triples int64) (*store.Store, *gen.Stats) {
	t.Helper()
	var buf bytes.Buffer
	g, err := gen.New(gen.DefaultParams(triples), &buf)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	if _, err := s.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	return s, stats
}

// TestBenchmarkQueriesOnGeneratedData is the end-to-end integration test:
// all 17 queries on a 10k generated document, native engine, asserting
// every structural expectation the paper states in Section V/VI.
func TestBenchmarkQueriesOnGeneratedData(t *testing.T) {
	s, stats := generatedStore(t, 10_000)
	eng := engine.New(s, engine.Native())
	ctx := context.Background()

	counts := map[string]int{}
	for _, q := range queries.All() {
		n, err := eng.Count(ctx, q.Parse())
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		counts[q.ID] = n
	}

	// Fixed-size results (paper Section V / Table V).
	fixed := map[string]int{
		"q1":   1,  // one journal named Journal 1 (1940)
		"q3c":  0,  // articles never carry swrc:isbn
		"q9":   4,  // person predicates: creator, editor in; type, name out
		"q11":  10, // LIMIT 10
		"q12a": 1,  // yes
		"q12b": 1,  // yes
		"q12c": 0,  // no
	}
	for id, want := range fixed {
		if counts[id] != want {
			t.Errorf("%s = %d, want %d", id, counts[id], want)
		}
	}

	// Q5a and Q5b are equivalent in this scenario (names are keys).
	if counts["q5a"] != counts["q5b"] {
		t.Errorf("q5a = %d, q5b = %d; must be equal", counts["q5a"], counts["q5b"])
	}

	// Growing results must be non-empty on a 10k document.
	for _, id := range []string{"q2", "q3a", "q4", "q6", "q8", "q10"} {
		if counts[id] == 0 {
			t.Errorf("%s returned no results on a 10k document", id)
		}
	}

	// Selectivity ladder of Q3 (Table I: pages 92.6%, month 0.65%, isbn 0).
	if !(counts["q3a"] > counts["q3b"] && counts["q3b"] > counts["q3c"]) {
		t.Errorf("Q3 selectivity ladder broken: a=%d b=%d c=%d",
			counts["q3a"], counts["q3b"], counts["q3c"])
	}
	ratio := float64(counts["q3a"]) / float64(stats.ClassCounts[0])
	if ratio < 0.88 || ratio > 0.97 {
		t.Errorf("q3a selects %.3f of articles, want ~0.926", ratio)
	}
}

// TestEnginesAgreeOnGeneratedData holds every operator configuration
// to the oracle's answers for all 17 queries on a small generated
// document, whose sparse joins differ in shape from the 10k sweep's.
func TestEnginesAgreeOnGeneratedData(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine sweep is slow")
	}
	s, _ := generatedStore(t, 2_000)
	o := oracleOf(s)
	for _, q := range queries.All() {
		pq := q.Parse()
		agree(t, o.answer(pq), s, pq, q.ID, operatorVariants()...)
	}
}

// TestResultStabilization pins the paper's stabilization claims: Q10's
// result stops growing once documents extend past Erdős' active years,
// and Q9 stays constant at 4.
func TestResultStabilization(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scale generation is slow")
	}
	ctx := context.Background()
	var q9s, q10s []int
	for _, triples := range []int64{200_000, 400_000} {
		s, stats := generatedStore(t, triples)
		if stats.EndYear <= 1996 {
			t.Skipf("document too small to cover Erdős' last year (%d)", stats.EndYear)
		}
		eng := engine.New(s, engine.Native())
		q9, _ := queries.ByID("q9")
		q10, _ := queries.ByID("q10")
		n9, err := eng.Count(ctx, q9.Parse())
		if err != nil {
			t.Fatal(err)
		}
		n10, err := eng.Count(ctx, q10.Parse())
		if err != nil {
			t.Fatal(err)
		}
		q9s = append(q9s, n9)
		q10s = append(q10s, n10)
	}
	for _, n := range q9s {
		if n != 4 {
			t.Errorf("q9 = %v, want constant 4", q9s)
		}
	}
	if q10s[0] != q10s[1] {
		t.Errorf("q10 must stabilize beyond 1996: %v", q10s)
	}
}

// TestConcurrentQueries verifies that a frozen store safely serves many
// engines and queries in parallel (queries are read-only; run with -race
// to check), and that concurrency changes latencies, never answers:
// every worker's count equals a sequential Count under the same engine
// configuration. Workers rotate over the served and the nested-loop-only
// configurations and start the query list at different offsets, so
// different queries are in flight at once.
func TestConcurrentQueries(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	ctx := context.Background()
	ids := []string{"q1", "q3b", "q9", "q10", "q11", "q12c"}
	configs := []engine.Options{operatorVariants()[0], engine.Native()}
	want := map[string]map[string]int{}
	for _, opts := range configs {
		eng := engine.New(s, opts)
		want[opts.Name] = map[string]int{}
		for _, id := range ids {
			q, _ := queries.ByID(id)
			n, err := eng.Count(ctx, q.Parse())
			if err != nil {
				t.Fatalf("%s %s sequential: %v", opts.Name, id, err)
			}
			want[opts.Name][id] = n
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2*len(configs); w++ {
		wg.Add(1)
		go func(w int, opts engine.Options) {
			defer wg.Done()
			eng := engine.New(s, opts)
			for i := range ids {
				id := ids[(i+w)%len(ids)]
				q, _ := queries.ByID(id)
				n, err := eng.Count(ctx, q.Parse())
				if err != nil {
					t.Errorf("worker %d (%s) %s: %v", w, opts.Name, id, err)
					continue
				}
				if n != want[opts.Name][id] {
					t.Errorf("worker %d (%s) %s: concurrent count %d != sequential %d", w, opts.Name, id, n, want[opts.Name][id])
				}
			}
		}(w, configs[w%len(configs)])
	}
	wg.Wait()
}

// TestNativeFastOnPointQueries pins the access-path claim: on a larger
// document the native engine answers the point queries (Q1, Q10, Q12c)
// orders of magnitude faster than a scan would take — here simply bounded
// by a generous constant.
func TestNativeFastOnPointQueries(t *testing.T) {
	s, _ := generatedStore(t, 100_000)
	eng := engine.New(s, engine.Native())
	ctx := context.Background()
	for _, id := range []string{"q1", "q10", "q12c"} {
		q, _ := queries.ByID(id)
		pq := q.Parse()
		start := time.Now()
		if _, err := eng.Count(ctx, pq); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 250*time.Millisecond {
			t.Errorf("%s took %v on 100k triples; index lookups should be near-instant", id, d)
		}
	}
}
