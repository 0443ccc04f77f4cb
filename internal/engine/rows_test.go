package engine_test

import (
	"context"
	"slices"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/testutil"
)

// TestSelectYieldsQueryRows: the cursor yields exactly Query's rows in
// Query's order, sequential and partitioned — Q7's correlated anti
// search and Q8's flattened join of groups among them — through one
// reused row slice.
func TestSelectYieldsQueryRows(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	for _, opts := range append([]engine.Options{engine.Native()}, parallel4()...) {
		eng := engine.New(s, opts)
		for _, q := range queries.All() {
			parsed := q.Parse()
			if parsed.Form != sparql.FormSelect {
				continue
			}
			res, err := eng.Query(context.Background(), parsed)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := eng.Select(context.Background(), parsed)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]rdf.Term
			var first *rdf.Term
			for rows.Next() {
				row := rows.Row()
				if len(row) > 0 {
					if first == nil {
						first = &row[0]
					} else if first != &row[0] {
						t.Fatalf("%s/%s: Row returned a fresh slice", opts.Name, q.ID)
					}
				}
				got = append(got, slices.Clone(row))
			}
			rows.Close()
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rows.Vars, res.Vars) || rows.Len() != len(got) {
				t.Fatalf("%s/%s: vars %v, Len %d for %d rows", opts.Name, q.ID, rows.Vars, rows.Len(), len(got))
			}
			if !slices.Equal(render(&engine.Result{Rows: got}), render(res)) {
				t.Errorf("%s/%s: cursor rows differ from Query's", opts.Name, q.ID)
			}
		}
	}
}

// TestSelectRejectsOtherForms: ASK, aggregate and CONSTRUCT queries do
// not get a cursor.
func TestSelectRejectsOtherForms(t *testing.T) {
	eng := engine.New(tinyLibrary(), engine.Native())
	for _, src := range []string{
		`ASK { ?s ?p ?o }`,
		`SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }`,
		`CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }`,
	} {
		if _, err := eng.Select(context.Background(), sparql.MustParse(src, rdf.Prefixes)); err == nil {
			t.Errorf("Select(%q) succeeded", src)
		}
	}
}

// TestSelectCloseJoinsWorkers: a cursor closed after its first row —
// a client that went away — joins its partition workers, and Close is
// idempotent.
func TestSelectCloseJoinsWorkers(t *testing.T) {
	testutil.CheckNoLeaks(t)
	s, _ := generatedStore(t, 10_000)
	q4, _ := queries.ByID("q4")
	for _, opts := range parallel4() {
		rows, err := engine.New(s, opts).Select(context.Background(), q4.Parse())
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("%s: no first row: %v", opts.Name, rows.Err())
		}
		rows.Close()
		rows.Close()
		if rows.Next() || rows.Len() != 1 {
			t.Fatalf("%s: closed cursor went on (Len %d)", opts.Name, rows.Len())
		}
	}
}
