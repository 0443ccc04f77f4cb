package results_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/queries"
	"sp2bench/internal/results"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// TestBenchmarkQueriesRoundTripJSON proves the JSON writer/parser pair
// is lossless for real workloads: every benchmark query is evaluated
// over a 10k-triple document, serialized, parsed back, and compared
// cell by cell — unbound OPTIONAL cells and typed literals included.
func TestBenchmarkQueriesRoundTripJSON(t *testing.T) {
	sawUnbound := false
	for _, q := range benchmarkResults(t) {
		q := q
		t.Run(q.id, func(t *testing.T) {
			res := q.res
			want := results.FromEngine(res)
			var buf strings.Builder
			if err := want.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := results.ParseJSON(strings.NewReader(buf.String()))
			if err != nil {
				t.Fatal(err)
			}
			if res.Form == sparql.FormAsk {
				if !got.IsAsk() || *got.Boolean != res.Ask {
					t.Fatalf("ASK verdict did not round-trip: %+v", got)
				}
				return
			}
			if got.IsAsk() {
				t.Fatal("SELECT result came back as ASK")
			}
			if strings.Join(got.Vars, ",") != strings.Join(want.Vars, ",") {
				t.Fatalf("vars = %v, want %v", got.Vars, want.Vars)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("rows = %d, want %d", len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				for j := range want.Vars {
					if got.Rows[i][j] != want.Rows[i][j] {
						t.Fatalf("row %d, var %s: %v != %v",
							i, want.Vars[j], got.Rows[i][j], want.Rows[i][j])
					}
					if want.Rows[i][j].IsZero() {
						sawUnbound = true
					}
				}
			}
		})
	}
	// The OPTIONAL queries (Q2's abstract, Q6's negation encoding) must
	// have exercised the unbound-cell path; if not, the round-trip proof
	// is weaker than advertised.
	if !sawUnbound {
		t.Error("no unbound cell crossed the round trip; expected some from the OPTIONAL queries")
	}
}

// TestBenchmarkQueriesMatchReference proves every writer byte-identical
// to its reference on real workloads: all benchmark queries over the
// 10k document, in every format.
func TestBenchmarkQueriesMatchReference(t *testing.T) {
	for _, q := range benchmarkResults(t) {
		r := results.FromEngine(q.res)
		for _, f := range results.AllFormats {
			var got, want bytes.Buffer
			if err := r.Write(&got, f); err != nil {
				t.Fatal(err)
			}
			if err := results.WriteReference(&want, r, f); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s as %s: %d bytes differ from the reference's %d",
					q.id, f, got.Len(), want.Len())
			}
		}
	}
}

type queryResult struct {
	id  string
	res *engine.Result
}

var (
	benchmarkOnce    sync.Once
	benchmarkQueries []queryResult
	benchmarkErr     error
)

// benchmarkResults evaluates every benchmark query once over a 10k
// document generated with the default seed, for all tests that need
// real results.
func benchmarkResults(t *testing.T) []queryResult {
	t.Helper()
	if testing.Short() {
		t.Skip("generates and queries a 10k document")
	}
	benchmarkOnce.Do(func() {
		var doc bytes.Buffer
		g, err := gen.New(gen.DefaultParams(10_000), &doc)
		if err != nil {
			benchmarkErr = err
			return
		}
		if _, err := g.Generate(); err != nil {
			benchmarkErr = err
			return
		}
		st := store.New()
		if _, err := st.Load(bytes.NewReader(doc.Bytes())); err != nil {
			benchmarkErr = err
			return
		}
		eng := engine.New(st, engine.Native())
		for _, q := range queries.All() {
			res, err := eng.Query(context.Background(), q.Parse())
			if err != nil {
				benchmarkErr = err
				return
			}
			benchmarkQueries = append(benchmarkQueries, queryResult{q.ID, res})
		}
	})
	if benchmarkErr != nil {
		t.Fatal(benchmarkErr)
	}
	return benchmarkQueries
}
