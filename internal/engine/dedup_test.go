package engine_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// dedupCases is the early-dedup placement table: how many dedup stages a
// query's plan holds. inOrder marks the cases whose rows, in order, must
// be the first occurrences of the same query's rows without DISTINCT.
var dedupCases = []struct {
	name, query string
	dedups      int
	inOrder     bool
}{
	{"q8", paperQuery("q8"), 1, true},
	{"q4", paperQuery("q4"), 1, true},
	{"q8-limit", paperQuery("q8") + " LIMIT 100", 1, true},
	{"q5a", paperQuery("q5a"), 0, false},
	{"q5b", paperQuery("q5b"), 0, false},
	{"q9", paperQuery("q9"), 0, false},
	{"q12a", paperQuery("q12a"), 0, false},
	{"q8-plain-select", strings.Replace(paperQuery("q8"), "DISTINCT ", "", 1), 0, false},
	{"q8-limit-without-distinct", strings.Replace(paperQuery("q8"), "DISTINCT ", "", 1) + " LIMIT 100", 0, false},
}

// TestEarlyDedup holds the dedup placement rule to its table on a 10k
// and a 5k document under the semi-join configurations (served,
// seven-row batches so that repeats straddle batch boundaries, four
// partitions, each with its own set), and every case to the oracle's
// solutions at 5k. The in-order cases, Q4 among them, are also held row
// for row to the first occurrences of their rows without DISTINCT,
// where no dedup stage is placed: dropping repeats inside the chain
// must not change which row of a DISTINCT comes first.
func TestEarlyDedup(t *testing.T) {
	large, _ := generatedStore(t, 10_000)
	small, _ := generatedStore(t, 5_000)
	o := oracleOf(small)
	for _, tc := range dedupCases {
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
				if got := strings.Count(plan, "dedup["); got != tc.dedups {
					t.Errorf("%s/%s at %d triples: %d dedup stages, want %d:\n%s", opts.Name, tc.name, s.Len(), got, tc.dedups, plan)
				}
			}
		}
		agree(t, o.answer(q), small, q, tc.name, semiConfigs()...)
		if !tc.inOrder {
			continue
		}
		plain := *q
		plain.Distinct, plain.Limit = false, -1
		for _, opts := range semiConfigs() {
			eng := engine.New(small, opts)
			want := firstOccurrences(rowsInOrder(t, eng, &plain))
			if q.Limit >= 0 {
				want = want[:min(len(want), q.Limit)]
			}
			if got := rowsInOrder(t, eng, q); !slices.Equal(got, want) {
				t.Errorf("%s/%s: %d rows differ from the first occurrences of the %d rows without DISTINCT",
					opts.Name, tc.name, len(got), len(want))
			}
		}
	}
}

// TestEarlyDedupTrace: Q8's dedup step shows the rows it read and those
// it kept, carries no estimate, and leaves CardinalityError as it would
// be without the step.
func TestEarlyDedupTrace(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	ctx, h := engine.WithAnalyze(context.Background())
	if _, err := engine.New(s, engine.Native()).Query(ctx, sparql.MustParse(paperQuery("q8"), rdf.Prefixes)); err != nil {
		t.Fatal(err)
	}
	tr := h.Trace()
	var bgp *engine.TraceNode
	var walk func(n *engine.TraceNode)
	walk = func(n *engine.TraceNode) {
		for _, st := range n.Steps {
			if st.Op == "dedup" {
				bgp = n
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	if bgp == nil {
		t.Fatalf("no dedup step in the trace:\n%s", tr)
	}
	i := slices.IndexFunc(bgp.Steps, func(st engine.TraceStep) bool { return st.Op == "dedup" })
	st := bgp.Steps[i]
	if st.RowsIn <= st.Rows || st.Rows == 0 || st.EstRows != 0 {
		t.Errorf("dedup step: in=%d rows=%d est=%v, want in > rows > 0 and no estimate", st.RowsIn, st.Rows, st.EstRows)
	}
	if prev := bgp.Steps[i-1]; prev.Rows != st.RowsIn {
		t.Errorf("dedup step read %d rows, the step before it emitted %d", st.RowsIn, prev.Rows)
	}
	if !strings.Contains(tr.String(), fmt.Sprintf("in=%d rows=%d", st.RowsIn, st.Rows)) {
		t.Errorf("the rendered trace does not show the dedup step's rows in and out:\n%s", tr)
	}
	maxWith, geoWith := tr.CardinalityError()
	bgp.Steps = slices.Delete(bgp.Steps, i, i+1)
	if maxWithout, geoWithout := tr.CardinalityError(); maxWith != maxWithout || geoWith != geoWithout {
		t.Errorf("CardinalityError scores the dedup step: %v/%v with it, %v/%v without", maxWith, geoWith, maxWithout, geoWithout)
	}
}

// rowsInOrder renders q's solutions in the order the engine returns
// them.
func rowsInOrder(t *testing.T, eng *engine.Engine, q *sparql.Query) []string {
	t.Helper()
	res, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", eng.Options().Name, err)
	}
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = fmt.Sprint(row)
	}
	return rows
}

// firstOccurrences keeps the first occurrence of each row, in order.
func firstOccurrences(rows []string) []string {
	seen := map[string]bool{}
	return slices.DeleteFunc(rows, func(r string) bool {
		if seen[r] {
			return true
		}
		seen[r] = true
		return false
	})
}
