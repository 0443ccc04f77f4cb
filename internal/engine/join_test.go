package engine_test

// Tests for the physical-operator layer: golden operator-choice plans on
// a 50k generated document, result agreement across every operator
// configuration on all 17 benchmark queries, and race/leak coverage for
// the parallel partitioned scan.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// operatorAblations enumerates the nested-loop-only reference plus every
// single-operator ablation and the full configuration. ParallelWorkers
// is forced so the partitioned executor runs even on single-core
// machines.
func operatorAblations() []engine.Options {
	nlj := engine.Native()
	nlj.Name = "native-nlj"
	nlj.HashJoins, nlj.MergeJoins, nlj.Parallel = false, false, false

	noHash := engine.Native()
	noHash.Name, noHash.HashJoins = "native-nohashjoin", false
	noMerge := engine.Native()
	noMerge.Name, noMerge.MergeJoins = "native-nomergejoin", false
	noPar := engine.Native()
	noPar.Name, noPar.Parallel = "native-noparallel", false

	par4 := engine.Native()
	par4.Name, par4.ParallelWorkers = "native-parallel4", 4

	vec := engine.NativeVec()
	vecNoHash := engine.NativeVec()
	vecNoHash.Name, vecNoHash.HashJoins = "native-vec-nohashjoin", false
	vecNoMerge := engine.NativeVec()
	vecNoMerge.Name, vecNoMerge.MergeJoins = "native-vec-nomergejoin", false
	// A deliberately tiny batch forces every operator across batch
	// boundaries mid-run, the states most likely to hold stale cursors.
	vecTiny := engine.NativeVec()
	vecTiny.Name, vecTiny.BatchSize = "native-vec-batch3", 3

	return append([]engine.Options{nlj, engine.Native(), noHash, noMerge, noPar, par4,
		vec, vecNoHash, vecNoMerge, vecTiny}, vecParallel4()...)
}

// vecParallel4 is the batch executor with four forced partition workers,
// at the default batch size and with two-row batches so partition
// boundaries and batch boundaries fall everywhere.
func vecParallel4() []engine.Options {
	par4 := engine.NativeVec()
	par4.Name, par4.ParallelWorkers = "native-vec-parallel4", 4
	tiny := par4
	tiny.Name, tiny.BatchSize = "native-vec-parallel4-batch2", 2
	return []engine.Options{par4, tiny}
}

// TestGoldenPlans50k pins the reorder-plus-operator choices for the
// paper's join-heavy queries on a 50k document: Q2's nine-way merge-join
// star, Q4's hash-join chain, Q5a's block swap plus keyed hash segment,
// and Q8's tiny merge anchor — on the tuple executor and, for the
// queries it covers, the partitioned batch executor, whose EXPLAIN
// must show only the plan that runs. The exact row counts are
// deterministic: the generator is seeded and the counts are structural
// properties of the document.
func TestGoldenPlans50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k document generation in -short mode")
	}
	s, _ := generatedStore(t, 50_000)
	opts := engine.Native()
	opts.ParallelWorkers = 4
	checkGoldenPlans(t, engine.New(s, opts), map[string][]string{
		"q2": {
			"bgp operators: scan[POS rows=274 sorted=?inproc]" +
				strings.Repeat(" merge[?inproc SPO rows=50004]", 8) + " parallel=4",
		},
		"q4": {
			"bgp operators: scan[POS rows=2407 sorted=?name1] nl" +
				" hash[?article1 build=4241] hash[?article1 build=4239]" +
				" hash[?journal build=4239] hash[?article2 build=4241]" +
				" hash[?article2 build=6830] hash[?author2 build=2407] parallel=4",
		},
		"q5a": {
			"bgp blocks swapped: probe est 6.83e+03 streams, build est 419 trails",
			"bgp operators: scan[POS rows=2407 sorted=?name] nl" +
				" hash[?article build=4241] hashseg[key=?name/?name2 steps=3] parallel=4",
		},
		"q8": {
			"bgp operators: scan[POS rows=1 sorted=?erdoes] merge[?erdoes POS rows=2407]",
		},
	})

	vec := vecParallel4()[0]
	checkGoldenPlans(t, engine.New(s, vec), map[string][]string{
		"q2": {
			"vec operators: scan[POS rows=274]" +
				strings.Repeat(" merge[?inproc SPO rows=50004]", 8) + " parallel=4",
		},
		"q4": {
			"vec operators: scan[POS rows=2407] nl" +
				" hash[?article1 build=4241] hash[?article1 build=4239]" +
				" hash[?journal build=4239] hash[?article2 build=4241]" +
				" hash[?article2 build=6830] hash[?author2 build=2407] parallel=4",
		},
		"q6": {
			"vec operators: scan[POS rows=9] merge[?class POS rows=7141]" +
				" hash[?doc build=4710] hash[?doc build=6830] hash[?author build=2407] parallel=4",
			"vec operators: scan[POS rows=9] merge[?class2 POS rows=7141]" +
				" hash[?doc2 build=4710] hash[?doc2 build=6830] parallel=4",
			"leftjoin: vectorized hash anti (hash key: true)",
		},
	})
}

// checkGoldenPlans asserts that each query's EXPLAIN contains every
// wanted line and, on a batch plan, no tuple operator line.
func checkGoldenPlans(t *testing.T, eng *engine.Engine, golden map[string][]string) {
	t.Helper()
	for id, wants := range golden {
		q, ok := queries.ByID(id)
		if !ok {
			t.Fatalf("unknown query %s", id)
		}
		plan, err := eng.Explain(q.Parse())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, want := range wants {
			if !strings.Contains(plan, want) {
				t.Errorf("%s/%s plan missing %q:\n%s", eng.Options().Name, id, want, plan)
			}
		}
		if strings.Contains(plan, "vec operators:") && strings.Contains(plan, "bgp operators:") {
			t.Errorf("%s/%s: a batch plan also shows a tuple plan:\n%s", eng.Options().Name, id, plan)
		}
	}
}

// TestOperatorChoicesAgreeOn17Queries is the physical-layer soundness
// check the acceptance criteria require: every operator configuration —
// nested-loop only, each operator disabled in turn, everything on, and
// forced four-way parallelism — returns exactly the same solutions for
// all 17 benchmark queries on a generated document.
func TestOperatorChoicesAgreeOn17Queries(t *testing.T) {
	size := int64(10_000)
	if testing.Short() {
		size = 5_000
	}
	s, _ := generatedStore(t, size)
	for _, q := range queries.All() {
		parsed := q.Parse()
		var ref []string
		var refName string
		for _, opts := range operatorAblations() {
			rows := renderEngine(t, s, opts, parsed)
			if ref == nil {
				ref, refName = rows, opts.Name
				continue
			}
			if strings.Join(rows, "\n") != strings.Join(ref, "\n") {
				t.Errorf("%s: %s returned %d rows, %s returned %d — operator choice changed the result",
					q.ID, opts.Name, len(rows), refName, len(ref))
			}
		}
	}
}

// parallel4 are the two executors with four forced partition workers.
func parallel4() []engine.Options {
	par4 := engine.Native()
	par4.ParallelWorkers = 4
	return []engine.Options{par4, vecParallel4()[0]}
}

// TestParallelPartitionedScanRace drives the partitioned parallel
// executors hard under the race detector: concurrent queries over one
// shared store, each split across four forced workers.
func TestParallelPartitionedScanRace(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	ids := []string{"q2", "q3a", "q4", "q5a", "q6", "q9"}
	for _, opts := range parallel4() {
		eng := engine.New(s, opts)
		want := map[string]int{}
		for _, id := range ids {
			q, _ := queries.ByID(id)
			n, err := eng.Count(context.Background(), q.Parse())
			if err != nil {
				t.Fatalf("%s/%s: %v", opts.Name, id, err)
			}
			want[id] = n
		}

		const clients = 4
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			go func() {
				for _, id := range ids {
					q, _ := queries.ByID(id)
					n, err := eng.Count(context.Background(), q.Parse())
					if err != nil {
						errs <- err
						return
					}
					if n != want[id] {
						errs <- fmt.Errorf("%s/%s: got %d results, want %d", opts.Name, id, n, want[id])
						return
					}
				}
				errs <- nil
			}()
		}
		for c := 0; c < clients; c++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParallelEarlyExitStopsWorkers: ASK and LIMIT abandon the parallel
// scan after the first rows; the workers must terminate rather than leak
// — even under a background context, where only the stop channel can
// reach them.
func TestParallelEarlyExitStopsWorkers(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	for _, opts := range parallel4() {
		checkEarlyExitStopsWorkers(t, engine.New(s, opts))
	}
}

func checkEarlyExitStopsWorkers(t *testing.T, eng *engine.Engine) {
	t.Helper()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		q, _ := queries.ByID("q12a") // ASK: stops at the first solution
		if _, err := eng.Query(context.Background(), q.Parse()); err != nil {
			t.Fatal(err)
		}
		lim := sparql.MustParse(
			`SELECT ?inproc WHERE { ?inproc rdf:type bench:Inproceedings . ?inproc dc:creator ?author } LIMIT 1`,
			rdf.Prefixes)
		if _, err := eng.Query(context.Background(), lim); err != nil {
			t.Fatal(err)
		}
	}
	// shutdown joins the workers before Query returns; the tolerant loop
	// only absorbs unrelated runtime goroutines winding down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: goroutines leaked: %d before, %d after early-exit queries",
				eng.Options().Name, before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHashSegmentValueEquality: the hashed disconnected block must probe
// by the FILTER's value-equality semantics, not dictionary-ID identity —
// "1"^^xsd:integer and "01"^^xsd:integer are distinct terms but equal
// values, and every configuration must agree on the join result.
func TestHashSegmentValueEquality(t *testing.T) {
	s := store.New()
	s.Add(rdf.NewTriple(rdf.IRI("urn:a"), rdf.IRI("urn:p"), rdf.TypedLiteral("1", rdf.XSDInteger)))
	s.Add(rdf.NewTriple(rdf.IRI("urn:a2"), rdf.IRI("urn:p"), rdf.TypedLiteral("7", rdf.XSDInteger)))
	s.Add(rdf.NewTriple(rdf.IRI("urn:b"), rdf.IRI("urn:q"), rdf.TypedLiteral("01", rdf.XSDInteger)))
	s.Add(rdf.NewTriple(rdf.IRI("urn:b2"), rdf.IRI("urn:q"), rdf.String("one")))
	s.Freeze()
	q := sparql.MustParse(
		`SELECT ?s ?t WHERE { ?s <urn:p> ?x . ?t <urn:q> ?y FILTER (?x = ?y) }`,
		rdf.Prefixes)

	// The native plan must actually take the hashed-block path.
	plan, err := engine.New(s, engine.Native()).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hashseg[key=") {
		t.Fatalf("expected a keyed hashseg plan, got:\n%s", plan)
	}

	for _, opts := range operatorAblations() {
		rows := renderEngine(t, s, opts, q)
		if len(rows) != 1 || !strings.Contains(rows[0], "urn:a") || !strings.Contains(rows[0], "urn:b") {
			t.Errorf("%s: got %v, want the single value-equal pair (urn:a, urn:b)", opts.Name, rows)
		}
	}
}

// TestParallelWorkersJoinBeforeQueryReturns: when a query returns, its
// parallel workers must already have terminated — a straggler would keep
// reading index ranges of a store or snapshot its caller considers
// released. ASK and LIMIT stop consuming after the first solution, so
// the join has to happen on the early-exit path too: the goroutine count
// must be back at its pre-query value the moment Query returns, with no
// grace period.
//
// The check runs on one P. A worker's deferred WaitGroup.Done queues the
// joining query goroutine to run next on the worker's own P, so with a
// single P the query resumes only after that worker goroutine has exited;
// with several, an idle P can resume the query while the worker is still
// being freed, and the count would race. The four workers per query are
// still spawned and joined either way.
func TestParallelWorkersJoinBeforeQueryReturns(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ask, _ := queries.ByID("q12a")
	early := []*sparql.Query{ask.Parse(), sparql.MustParse( // ASK and LIMIT: early exits
		`SELECT ?inproc WHERE { ?inproc rdf:type bench:Inproceedings . ?inproc dc:creator ?author } LIMIT 1`,
		rdf.Prefixes)}
	for i := 0; i < 5; i++ {
		for _, opts := range parallel4() {
			eng := engine.New(s, opts)
			for _, q := range early {
				before := runtime.NumGoroutine()
				if _, err := eng.Query(context.Background(), q); err != nil {
					t.Fatal(err)
				}
				if after := runtime.NumGoroutine(); after > before {
					t.Fatalf("%s: %d goroutines outlived the query (%d before, %d after)",
						opts.Name, after-before, before, after)
				}
			}
		}
	}
}

// TestConstantFilterNotDroppedByPhysicalPlan: a variable-free FILTER
// conjunct lands in the backtracker's preFilters, which the physical
// iterators do not evaluate — such BGPs must stay on the backtracker.
// Regression test for the physical layer silently dropping FILTER(1 > 2).
func TestConstantFilterNotDroppedByPhysicalPlan(t *testing.T) {
	s := store.New()
	for i := 0; i < 10; i++ {
		o := rdf.IRI(fmt.Sprintf("urn:o%d", i))
		s.Add(rdf.NewTriple(rdf.IRI("urn:s"), rdf.IRI("urn:p"), o))
		s.Add(rdf.NewTriple(o, rdf.IRI("urn:q"), rdf.Integer(i)))
	}
	s.Freeze()
	for _, src := range []string{
		`SELECT ?o WHERE { <urn:s> <urn:p> ?o . ?o <urn:q> ?z FILTER (1 > 2) }`,
		`SELECT ?o WHERE { <urn:s> <urn:p> ?o . ?o <urn:q> ?z FILTER (2 > 1) }`,
	} {
		q := sparql.MustParse(src, rdf.Prefixes)
		var ref []string
		var refName string
		for _, opts := range append(operatorAblations(), engine.Mem()) {
			rows := renderEngine(t, s, opts, q)
			if ref == nil {
				ref, refName = rows, opts.Name
				continue
			}
			if strings.Join(rows, "\n") != strings.Join(ref, "\n") {
				t.Errorf("%q: %s returned %d rows, %s returned %d",
					src, opts.Name, len(rows), refName, len(ref))
			}
		}
	}
}
