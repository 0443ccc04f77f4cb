package engine_test

import (
	"context"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/sparql"
)

// BenchmarkEngineSelect is the engine layer's evidence for executor
// changes: Q4, Q5a, Q5b, Q8, Q12a and Q12b at 10k under the served
// configuration, each evaluated in full per iteration — a SELECT through
// Select with every row drained, an ASK through Query. It reports ns/op and
// allocs/op; the "rows" metric pins that both sides of a comparison
// computed the same answer.
//
//	go test -run '^$' -bench EngineSelect -benchmem ./internal/engine
func BenchmarkEngineSelect(b *testing.B) {
	s, _ := generatedStore(b, 10_000)
	eng := engine.New(s, engine.Native())
	ctx := context.Background()
	for _, id := range []string{"q4", "q5a", "q5b", "q8", "q12a", "q12b"} {
		q, _ := queries.ByID(id)
		parsed := q.Parse()
		b.Run(id, func(b *testing.B) {
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
