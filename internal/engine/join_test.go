package engine_test

// Tests for the BGP join operators: golden operator-choice plans on a
// 50k generated document, result agreement across every operator
// configuration on all 17 benchmark queries, and race/leak coverage for
// the parallel partitioned scan.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// operatorVariants are the engine's forced-operator configurations,
// each held to the oracle: nested-loop joins only on one worker, each
// join operator switched off in turn, everything on, one worker, and a
// deliberately tiny batch that forces every operator across batch
// boundaries mid-run, the states most likely to hold stale cursors —
// plus the parallel4 variants.
func operatorVariants() []engine.Options {
	nlj := engine.Native()
	nlj.Name, nlj.HashJoins, nlj.MergeJoins, nlj.ParallelWorkers = "native-nlj", false, false, 1
	noHash := engine.Native()
	noHash.Name, noHash.HashJoins = "native-nohashjoin", false
	noMerge := engine.Native()
	noMerge.Name, noMerge.MergeJoins = "native-nomergejoin", false
	seq := engine.Native()
	seq.Name, seq.ParallelWorkers = "native-sequential", 1
	tiny := engine.Native()
	tiny.Name, tiny.BatchSize = "native-batch3", 3
	return append([]engine.Options{nlj, engine.Native(), noHash, noMerge, seq, tiny}, parallel4()...)
}

// parallel4 is the native engine with four forced partition workers,
// at the default batch size and with two-row batches so partition
// boundaries and batch boundaries fall everywhere.
func parallel4() []engine.Options {
	par4 := engine.Native()
	par4.Name, par4.ParallelWorkers = "native-parallel4", 4
	tiny := par4
	tiny.Name, tiny.BatchSize = "native-parallel4-batch2", 2
	return []engine.Options{par4, tiny}
}

// TestGoldenPlans50k pins the reorder-plus-operator choices for the
// paper's join-heavy queries on a 50k document: Q2's nine-way merge-join
// star, Q4's hash-join chain, Q5a's block swap plus keyed hash segment
// with the block's own build chain, searched per person by a semi-join
// stage like Q5b's article check, Q6's anti join over two hash chains,
// and Q8's join of groups flattened into two chains on a tiny merge
// anchor. Q4 and Q8's first branch deduplicate in front of the stage
// that fans out after a slot dies. No EXPLAIN may show a tuple
// operator line. The exact row counts are deterministic: the generator
// is seeded and the counts are structural properties of the document.
func TestGoldenPlans50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k document generation in -short mode")
	}
	s, _ := generatedStore(t, 50_000)
	checkGoldenPlans(t, engine.New(s, parallel4()[0]), map[string][]string{
		"q2": {
			"vec operators: scan[POS rows=274]" +
				strings.Repeat(" merge[?inproc SPO rows=50004]", 8) + " parallel=4",
		},
		"q4": {
			"vec operators: scan[POS rows=2407] nl" +
				" hash[?article1 build=4241] hash[?article1 build=4239]" +
				" dedup[?name1 ?journal] hash[?journal build=4239] hash[?article2 build=4241]" +
				" hash[?article2 build=6830] hash[?author2 build=2407] parallel=4",
		},
		"q5a": {
			"bgp blocks swapped: probe est 6.83e+03 streams, build est 419 trails",
			"vec operators: scan[POS rows=2407] semi[hashseg[key=?name/?name2 steps=3]" +
				" nl hash[?article build=4241]] parallel=4",
			"vec hashseg build: scan[POS rows=274] merge[?inproc SPO rows=50004] nl",
		},
		"q5b": {
			"vec operators: scan[POS rows=274] merge[?inproc SPO rows=50004] nl semi[nl nl] parallel=4",
		},
		"q6": {
			"vec operators: scan[POS rows=9] merge[?class POS rows=7141]" +
				" hash[?doc build=4710] hash[?doc build=6830] hash[?author build=2407] parallel=4",
			"vec operators: scan[POS rows=9] merge[?class2 POS rows=7141]" +
				" hash[?doc2 build=4710] hash[?doc2 build=6830] parallel=4",
			"leftjoin: vectorized hash anti (hash key: true)",
		},
		"q8": {
			"vec operators: scan[POS rows=1] merge[?erdoes POS rows=2407] merge[?erdoes POS rows=6830]" +
				" nl nl dedup[?author ?doc2] nl nl",
			"vec operators: scan[POS rows=1] merge[?erdoes POS rows=2407] merge[?erdoes POS rows=6830] nl nl\n",
			"join of groups: flattened into 2 BGPs",
		},
	})
}

// checkGoldenPlans asserts that each query's EXPLAIN contains every
// wanted line and no tuple BGP operator line.
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
		if strings.Contains(plan, "bgp operators:") {
			t.Errorf("%s/%s: the plan shows a tuple BGP operator line:\n%s", eng.Options().Name, id, plan)
		}
	}
}

// TestOperatorChoicesAgreeOn17Queries is the physical-layer soundness
// check: every operator configuration — nested-loop only, each operator
// disabled in turn, everything on, tiny batches and forced four-way
// parallelism — returns an answer the oracle allows for all 17
// benchmark queries and the aggregate catalog (qx1–qx5) on a generated
// document.
func TestOperatorChoicesAgreeOn17Queries(t *testing.T) {
	size := int64(10_000)
	if testing.Short() {
		size = 5_000
	}
	s, _ := generatedStore(t, size)
	o := oracleOf(s)
	for _, q := range queries.All() {
		parsed := q.Parse()
		agree(t, o.answer(parsed), s, parsed, q.ID, operatorVariants()...)
	}
	for _, x := range queries.Extensions() {
		parsed := sparql.MustParse(x.Text, queries.Prologue)
		agree(t, o.answer(parsed), s, parsed, x.ID, operatorVariants()...)
	}
}

// TestParallelPartitionedScanRace drives the partitioned parallel
// executor hard under the race detector: concurrent queries over one
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

// earlyExits are queries that stop consuming after their first
// solution: Q12a's ASK (a join with a hashed block), LIMIT 1 over a
// join, and LIMIT 1 over a unit BGP.
func earlyExits() []*sparql.Query {
	ask, _ := queries.ByID("q12a")
	return []*sparql.Query{
		ask.Parse(),
		sparql.MustParse(
			`SELECT ?inproc WHERE { ?inproc rdf:type bench:Inproceedings . ?inproc dc:creator ?author } LIMIT 1`,
			rdf.Prefixes),
		sparql.MustParse(`SELECT ?doc WHERE { ?doc dc:creator ?author } LIMIT 1`, rdf.Prefixes),
	}
}

// earlyExitConfigs are the configurations with forced partitions; each
// must run the early-exit queries on partitioned batch workers.
func earlyExitConfigs(t *testing.T, s *store.Store) []engine.Options {
	t.Helper()
	configs := parallel4()
	for _, opts := range configs {
		for _, q := range earlyExits() {
			plan, err := engine.New(s, opts).Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "vec operators:") || !strings.Contains(plan, "parallel=4") ||
				strings.Contains(plan, "tuple fallback") {
				t.Fatalf("%s: early-exit query not on partitioned batch workers:\n%s", opts.Name, plan)
			}
		}
	}
	return configs
}

// TestParallelEarlyExitStopsWorkers: ASK and LIMIT abandon the parallel
// scan after the first rows; the workers must terminate rather than leak
// — even under a background context, where only the stop channel can
// reach them.
func TestParallelEarlyExitStopsWorkers(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	for _, opts := range earlyExitConfigs(t, s) {
		checkEarlyExitStopsWorkers(t, engine.New(s, opts))
	}
}

func checkEarlyExitStopsWorkers(t *testing.T, eng *engine.Engine) {
	t.Helper()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		for _, q := range earlyExits() {
			if _, err := eng.Query(context.Background(), q); err != nil {
				t.Fatal(err)
			}
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

	// The plan must actually take the hashed-block path.
	plan, err := engine.New(s, engine.Native()).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(strings.Split(plan, "\n"), func(line string) bool {
		return strings.HasPrefix(line, "vec operators:") && strings.Contains(line, "hashseg[key=")
	}) {
		t.Fatalf("expected a keyed hashseg stage in the batch plan, got:\n%s", plan)
	}

	want := oracleOf(s).answer(q)
	if rows := want.rows(); len(rows) != 1 || !strings.Contains(rows[0], "urn:a") || !strings.Contains(rows[0], "urn:b") {
		t.Errorf("the oracle has %v, want the single value-equal pair (urn:a, urn:b)", rows)
	}
	agree(t, want, s, q, "value-equal", operatorVariants()...)
}

// TestHashSegmentRepeatsUpstreamVariable: a pinned variable is a
// constant to the planner, so two patterns sharing only ?x below are
// disconnected blocks, yet each step still binds ?x. The trailing block
// is built without the upstream binding, so merging a block row must
// check the repeated variable against the streamed row, not overwrite
// it.
func TestHashSegmentRepeatsUpstreamVariable(t *testing.T) {
	s := store.New()
	for i := 0; i < 6; i++ {
		s.Add(rdf.NewTriple(rdf.IRI(fmt.Sprintf("urn:a%d", i)), rdf.IRI("urn:p"), rdf.IRI(fmt.Sprintf("urn:x%d", i%3))))
		s.Add(rdf.NewTriple(rdf.IRI(fmt.Sprintf("urn:b%d", i)), rdf.IRI("urn:q"), rdf.IRI(fmt.Sprintf("urn:y%d", i))))
		s.Add(rdf.NewTriple(rdf.IRI(fmt.Sprintf("urn:b%d", i)), rdf.IRI("urn:r"), rdf.IRI(fmt.Sprintf("urn:x%d", i%2))))
	}
	s.Freeze()
	q := sparql.MustParse(`SELECT ?a ?b ?x ?y WHERE { ?a <urn:p> ?x . ?b <urn:q> ?y . ?b <urn:r> ?x FILTER (?x = <urn:x0>) }`, rdf.Prefixes)
	want := oracleOf(s).answer(q)
	if n := len(want.rows()); n != 6 {
		t.Fatalf("the oracle has %d rows, want 6 (2 ?a × 3 ?b)", n)
	}
	agree(t, want, s, q, "repeated ?x", operatorVariants()...)
	for _, opts := range operatorVariants() {
		plan, err := engine.New(s, opts).Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if opts.HashJoins && !strings.Contains(plan, "hashseg[cross steps=1]") {
			t.Fatalf("%s: expected the disconnected block to be hashed:\n%s", opts.Name, plan)
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
	configs := earlyExitConfigs(t, s)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 5; i++ {
		for _, opts := range configs {
			eng := engine.New(s, opts)
			for _, q := range earlyExits() {
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
// conjunct lands in the backtracker's preFilters, which the batch
// chains do not evaluate — such BGPs must stay on the backtracker.
// Regression test for the join operators silently dropping
// FILTER(1 > 2).
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
		agree(t, oracleOf(s).answer(q), s, q, src, operatorVariants()...)
	}
}
