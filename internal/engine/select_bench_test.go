package engine_test

import (
	"bytes"
	"context"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// BenchmarkEngineSelect is the engine layer's evidence for executor
// changes: Q2, Q4, Q5a, Q5b, Q6, Q7, Q8, Q12a and Q12b at 10k under the
// served configuration — Q2, Q6 and Q7 are the three OPTIONAL shapes:
// a probe per left row, a hash anti join, and a correlated anti search — each evaluated in full per iteration — a SELECT through
// Select with every row drained, an ASK through Query. The store side
// runs over a frozen store; the snapshot side over an MVCC snapshot
// whose 10k base carries a live delta of 3k triples, the reads of the
// mixed-update workload. It reports ns/op and allocs/op; the "rows"
// metric pins that both sides of a comparison computed the same answer.
//
//	go test -run '^$' -bench EngineSelect -benchmem ./internal/engine
func BenchmarkEngineSelect(b *testing.B) {
	s, _ := generatedStore(b, 10_000)
	sn := liveDeltaSnapshot(b, 10_000, 3_000)
	ctx := context.Background()
	for _, src := range []struct {
		name string
		r    store.Reader
	}{{"store", s}, {"snapshot", sn}} {
		eng := engine.NewReader(src.r, engine.Native())
		for _, id := range []string{"q2", "q4", "q5a", "q5b", "q6", "q7", "q8", "q12a", "q12b"} {
			q, _ := queries.ByID(id)
			parsed := q.Parse()
			b.Run(src.name+"/"+id, func(b *testing.B) {
				b.ReportAllocs()
				rows := 0
				for i := 0; i < b.N; i++ {
					n, err := drain(ctx, eng, parsed)
					if err != nil {
						b.Fatal(err)
					}
					rows = n
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// liveDeltaSnapshot generates a document of base+delta triples, freezes
// its first base triples as an MVCC store's generation, commits the
// rest as one batch, and returns a snapshot of the result. Merges are
// off, so the delta stays live.
func liveDeltaSnapshot(b *testing.B, base, delta int64) *mvcc.Snapshot {
	b.Helper()
	var doc bytes.Buffer
	g, err := gen.New(gen.DefaultParams(base+delta), &doc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		b.Fatal(err)
	}
	lines := bytes.SplitAfter(doc.Bytes(), []byte("\n"))
	st := store.New()
	if _, err := st.Load(bytes.NewReader(bytes.Join(lines[:base], nil))); err != nil {
		b.Fatal(err)
	}
	batch, err := rdf.NewReader(bytes.NewReader(bytes.Join(lines[base:], nil))).ReadAll()
	if err != nil {
		b.Fatal(err)
	}
	live := mvcc.New(st, mvcc.MergePolicy{Disabled: true})
	b.Cleanup(live.Close)
	live.Apply(batch)
	sn := live.Snapshot()
	b.Cleanup(sn.Close)
	if sn.DeltaLen() == 0 {
		b.Fatal("snapshot has no delta")
	}
	return sn
}

// drain evaluates q and returns its solution count: a SELECT's rows
// read one by one off its cursor, an ASK's answer as 0 or 1.
func drain(ctx context.Context, eng *engine.Engine, q *sparql.Query) (int, error) {
	if q.Form != sparql.FormSelect {
		res, err := eng.Query(ctx, q)
		if err != nil {
			return 0, err
		}
		return res.Len(), nil
	}
	rows, err := eng.Select(ctx, q)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	return n, rows.Err()
}
