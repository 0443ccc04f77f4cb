package engine_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
)

// queryAnalyze runs Query under EXPLAIN ANALYZE and returns the result
// with its trace, the way CountAnalyze does for Count.
func queryAnalyze(ctx context.Context, eng *engine.Engine, q *sparql.Query) (*engine.Result, *engine.Trace, error) {
	ctx, h := engine.WithAnalyze(ctx)
	res, err := eng.Query(ctx, q)
	return res, h.Trace(), err
}

// TestAnalyzeTraceConsistency runs the full 17-query sweep under
// EXPLAIN ANALYZE on the served configuration and on index nested-loop
// joins only, and asserts the invariant the trace hangs on: the root
// operator's actual row count equals the query's result count, for
// every query, every time.
func TestAnalyzeTraceConsistency(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	ctx := context.Background()
	for _, opts := range []engine.Options{engine.Native(), operatorVariants()[0]} {
		eng := engine.New(s, opts)
		for _, q := range queries.All() {
			n, tr, err := eng.CountAnalyze(ctx, q.Parse())
			if err != nil {
				t.Fatalf("%s/%s: %v", opts.Name, q.ID, err)
			}
			if tr == nil || tr.Root == nil {
				t.Fatalf("%s/%s: no trace collected", opts.Name, q.ID)
			}
			if tr.Rows != int64(n) {
				t.Errorf("%s/%s: root rows %d != result count %d", opts.Name, q.ID, tr.Rows, n)
			}
			if tr.WallNS < 0 {
				t.Errorf("%s/%s: negative wall time %d", opts.Name, q.ID, tr.WallNS)
			}
		}
	}
}

// TestAnalyzeTraceVectorized pins the batch path's trace contract on
// queries the vec executor covers: the root is a vectorized operator
// tree whose row counts match the result count, and per-batch counters
// are populated (at least one batch whenever rows flowed). Partitioned
// BGPs report their fan-out.
func TestAnalyzeTraceVectorized(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	for _, opts := range []engine.Options{engine.Native(), parallel4()[0]} {
		checkTraceVectorized(t, engine.New(s, opts))
	}
}

func checkTraceVectorized(t *testing.T, eng *engine.Engine) {
	t.Helper()
	ctx := context.Background()
	forced := eng.Options().ParallelWorkers
	for _, qid := range []string{"q1", "q2", "q4", "q5b", "q9"} {
		q, _ := queries.ByID(qid)
		id := eng.Options().Name + "/" + qid
		n, tr, err := eng.CountAnalyze(ctx, q.Parse())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tr == nil || tr.Root == nil {
			t.Fatalf("%s: no trace collected", id)
		}
		if tr.Rows != int64(n) {
			t.Errorf("%s: root rows %d != result count %d", id, tr.Rows, n)
		}
		vectorized := false
		var walk func(tn *engine.TraceNode)
		walk = func(tn *engine.TraceNode) {
			if tn.Detail == "vectorized" {
				vectorized = true
				if tn.Rows > 0 && tn.Batches == 0 {
					t.Errorf("%s: %s rows=%d but batches=0", id, tn.Op, tn.Rows)
				}
				// Q1's anchor range is one row: nothing to partition.
				if tn.Op == "bgp" && qid != "q1" && forced > 0 && tn.Parallel != forced {
					t.Errorf("%s: bgp parallel=%d, want %d", id, tn.Parallel, forced)
				}
			}
			for _, c := range tn.Children {
				walk(c)
			}
		}
		walk(tr.Root)
		if !vectorized {
			t.Errorf("%s: expected a vectorized trace, got op %q detail %q",
				id, tr.Root.Op, tr.Root.Detail)
		}
		if n > 0 && tr.Root.Batches == 0 {
			t.Errorf("%s: root emitted %d rows in 0 batches", id, n)
		}
	}
}

// TestAnalyzeTraceDetail pins the shape of a traced plan: Q2's native
// trace must carry per-step rows with planner estimates, and the text
// rendering must show actual-vs-estimated rows.
func TestAnalyzeTraceDetail(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	eng := engine.New(s, engine.Native())
	q, _ := queries.ByID("q2")
	res, tr, err := queryAnalyze(context.Background(), eng, q.Parse())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rows != int64(res.Len()) {
		t.Errorf("trace rows %d != result len %d", tr.Rows, res.Len())
	}
	// Find the BGP node and check its steps carry estimates and actuals.
	var bgp *engine.TraceNode
	var walk func(n *engine.TraceNode)
	walk = func(n *engine.TraceNode) {
		if n.Op == "bgp" && bgp == nil {
			bgp = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	if bgp == nil {
		t.Fatal("no bgp operator in trace")
	}
	if len(bgp.Steps) == 0 {
		t.Fatal("bgp operator has no step breakdown")
	}
	sawEst := false
	for _, st := range bgp.Steps {
		if st.EstRows > 0 {
			sawEst = true
		}
	}
	if !sawEst {
		t.Error("no step carries a planner estimate")
	}
	if bgp.Rows == 0 {
		t.Error("bgp produced no rows on q2 over a 10k document")
	}
	out := tr.String()
	for _, want := range []string{"rows=", "est=", "wall="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, out)
		}
	}
	if maxR, geo := tr.CardinalityError(); maxR < 1 || geo < 1 {
		t.Errorf("cardinality error ratios must be >= 1, got max=%v geo=%v", maxR, geo)
	}
}

// TestAnalyzeOffCollectsNothing asserts the zero-overhead contract's
// observable half: without WithAnalyze no handle exists and queries
// carry no trace state (a smoke check that the default path stays on
// the untraced plan).
func TestAnalyzeOffCollectsNothing(t *testing.T) {
	s, _ := generatedStore(t, 2_000)
	eng := engine.New(s, engine.Native())
	q, _ := queries.ByID("q1")
	if _, err := eng.Count(context.Background(), q.Parse()); err != nil {
		t.Fatal(err)
	}
}

// TestCardinalityErrorSkipsEarlyExits: an operator its consumer stopped
// pulling (here a scan under LIMIT 1, and Q12a's ASK) is marked partial
// and left out of the q-error, while Q8's exhausted operators still
// report their real misestimate.
func TestCardinalityErrorSkipsEarlyExits(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	ctx := context.Background()
	eng := engine.New(s, engine.Native())
	limit := sparql.MustParse(`SELECT * WHERE { ?s ?p ?o } LIMIT 1`, rdf.Prefixes)
	q12a, _ := queries.ByID("q12a")
	for name, q := range map[string]*sparql.Query{"limit": limit, "q12a": q12a.Parse()} {
		_, tr, err := queryAnalyze(ctx, eng, q)
		if err != nil {
			t.Fatal(err)
		}
		var bgp *engine.TraceNode
		var walk func(n *engine.TraceNode)
		walk = func(n *engine.TraceNode) {
			if n.Op == "bgp" {
				bgp = n
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(tr.Root)
		if bgp == nil || !bgp.Partial || bgp.EstRows <= 1 {
			t.Fatalf("%s: want a partial bgp carrying an estimate, got %+v", name, bgp)
		}
		if maxR, geo := tr.CardinalityError(); maxR != 0 || geo != 0 {
			t.Errorf("%s: q-error max=%v geo=%v from an early exit:\n%s", name, maxR, geo, tr)
		}
		if out := tr.String(); strings.Contains(out, "cardinality error") || !strings.Contains(out, " partial") {
			t.Errorf("%s: rendering must mark the partial operator and print no q-error:\n%s", name, out)
		}
	}
	q8, _ := queries.ByID("q8")
	_, tr, err := queryAnalyze(ctx, eng, q8.Parse())
	if err != nil {
		t.Fatal(err)
	}
	if maxR, _ := tr.CardinalityError(); maxR < 100 {
		t.Errorf("q8: max q-error %.1f, want its exhausted misestimate (>= 100x) reported:\n%s", maxR, tr)
	}
}

// TestSemiJoinTrace pins how a semi-join stage shows in EXPLAIN
// ANALYZE: one step, op "semi", whose estimate is at most its input's,
// whose rows are the BGP's, and whose probes and memo hits add up to
// its input rows; then the steps it searches, which report probes and
// no estimate. Q5a's value join thereby stops being scored as a cross
// product: its worst q-error at 10k was 86.9× before.
func TestSemiJoinTrace(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	eng := engine.New(s, engine.Native())
	for _, id := range []string{"q5a", "q5b"} {
		q, _ := queries.ByID(id)
		_, tr, err := queryAnalyze(context.Background(), eng, q.Parse())
		if err != nil {
			t.Fatal(err)
		}
		var bgp *engine.TraceNode
		var walk func(n *engine.TraceNode)
		walk = func(n *engine.TraceNode) {
			if n.Op == "bgp" {
				bgp = n
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(tr.Root)
		if bgp == nil {
			t.Fatalf("%s: no bgp operator in the trace", id)
		}
		at := slices.IndexFunc(bgp.Steps, func(s engine.TraceStep) bool { return s.Op == "semi" })
		if at < 1 || at == len(bgp.Steps)-1 {
			t.Fatalf("%s: want a semi step after the scan and before the steps it searches:\n%s", id, tr)
		}
		semi, in := bgp.Steps[at], bgp.Steps[at-1]
		if semi.EstRows > in.EstRows || semi.Rows != bgp.Rows || semi.Probes+semi.MemoHits != in.Rows {
			t.Errorf("%s: semi step %+v over input %+v, bgp rows %d", id, semi, in, bgp.Rows)
		}
		for _, st := range bgp.Steps[at+1:] {
			if !strings.HasPrefix(st.Op, "semi:") || st.EstRows != 0 || st.Probes == 0 {
				t.Errorf("%s: searched step %+v: want op semi:*, probes and no estimate", id, st)
			}
		}
		if out := tr.String(); !strings.Contains(out, "probes=") {
			t.Errorf("%s: the rendering shows no probes:\n%s", id, out)
		}
		if id != "q5a" {
			continue
		}
		if maxR, _ := tr.CardinalityError(); maxR > 25 {
			t.Errorf("q5a: max q-error %.1fx, want at most 25x:\n%s", maxR, tr)
		}
	}
}
