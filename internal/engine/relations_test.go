package engine_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// TestPaperRelations holds the engine at scale to the relations the
// paper states between its own queries (§V), which need no reference
// evaluator: Q5a and Q5b return the same solutions (as multisets, not
// only as counts), Q12a answers whether Q5a has a solution, Q12b
// whether Q8 has one, and Q12c is false. They are checked on a 50k
// document, over a plain store and over an MVCC snapshot holding every
// sixth triple in a live delta (TestEnginesAgreeOverLiveDelta's
// split), under the served configuration and under four partitions
// with seven-row batches; without -short (and without -race, where it
// does not fit CI's race job) also on a 250k document. At 50k every
// configuration also answers Q7 as the oracle does: Q7, the paper's
// double negation, has no solution at 10k, where the agreement sweeps
// run.
func TestPaperRelations(t *testing.T) {
	sizes := []int64{50_000}
	if !testing.Short() && !raceEnabled {
		sizes = append(sizes, 250_000)
	}
	split := engine.Native()
	split.Name, split.ParallelWorkers, split.BatchSize = "native-parallel4-batch7", 4, 7
	for _, size := range sizes {
		var doc bytes.Buffer
		g, err := gen.New(gen.DefaultParams(size), &doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Generate(); err != nil {
			t.Fatal(err)
		}
		full := store.New()
		if _, err := full.Load(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatal(err)
		}
		var rest, sixth [][]byte
		for i, l := range bytes.SplitAfter(doc.Bytes(), []byte("\n")) {
			if i%6 == 5 {
				sixth = append(sixth, l)
			} else {
				rest = append(rest, l)
			}
		}
		base := store.New()
		if _, err := base.Load(bytes.NewReader(bytes.Join(rest, nil))); err != nil {
			t.Fatal(err)
		}
		delta, err := rdf.NewReader(bytes.NewReader(bytes.Join(sixth, nil))).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		live := mvcc.New(base, mvcc.MergePolicy{Disabled: true})
		live.Apply(delta)
		snap := live.Snapshot()
		if snap.Len() != full.Len() {
			t.Fatalf("%d: the snapshot holds %d triples, the document %d", size, snap.Len(), full.Len())
		}
		for _, src := range []namedReader{{"store", full}, {"live-delta", snap}} {
			for _, opts := range []engine.Options{engine.Native(), split} {
				checkPaperRelations(t, fmt.Sprintf("%d/%s/%s", size, src.name, opts.Name), engine.NewReader(src.r, opts))
			}
		}
		if size == 50_000 {
			q7, _ := queries.ByID("q7")
			want := oracleOf(full).answer(q7.Parse())
			if len(want.rows()) == 0 {
				t.Fatal("Q7 has no solution at 50k: the check would be vacuous")
			}
			agree(t, want, full, q7.Parse(), "q7", operatorVariants()...)
			agree(t, want, snap, q7.Parse(), "q7/live-delta", engine.Native(), split)
		}
		snap.Close()
		live.Close()
	}
}

// checkPaperRelations checks the paper's relations on one engine.
func checkPaperRelations(t *testing.T, label string, eng *engine.Engine) {
	t.Helper()
	run := func(id string) []string {
		q, ok := queries.ByID(id)
		if !ok {
			t.Fatalf("no query %s", id)
		}
		return sortedRows(t, eng, q.Parse())
	}
	ask := func(yes bool) []string { return []string{fmt.Sprintf("ask=%v", yes)} }
	q5a, q5b := run("q5a"), run("q5b")
	if len(q5a) == 0 {
		t.Fatalf("%s: Q5a has no solution, so the relations are vacuous", label)
	}
	if !slices.Equal(q5a, q5b) {
		t.Errorf("%s: Q5a has %d solutions, Q5b %d; they differ as multisets", label, len(q5a), len(q5b))
	}
	if got := run("q12a"); !slices.Equal(got, ask(len(q5a) > 0)) {
		t.Errorf("%s: Q12a %v, Q5a has %d solutions", label, got, len(q5a))
	}
	if got, q8 := run("q12b"), run("q8"); !slices.Equal(got, ask(len(q8) > 0)) {
		t.Errorf("%s: Q12b %v, Q8 has %d solutions", label, got, len(q8))
	}
	if got := run("q12c"); !slices.Equal(got, ask(false)) {
		t.Errorf("%s: Q12c %v, want false", label, got)
	}
}
