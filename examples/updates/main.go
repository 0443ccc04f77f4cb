// Update streams: the extension the paper's conclusion proposes —
// "Updates, for instance, could be realized by minor extensions to our
// data generator." Because generation is incremental and consistent at
// document boundaries, the generator can split its output into a base
// document plus one consistent delta per simulated year; the MVCC store
// commits each delta as an insert batch and queries keep working on
// snapshots.
//
//	go run ./examples/updates
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

func main() {
	// 1. Generate a base document (1936-1955) and yearly deltas
	// (1956-1960). Concatenated, they are byte-identical to one
	// continuous run — deltas are pure, consistent additions.
	p := gen.Params{Seed: 1, StartYear: 1936, EndYear: 1960, TargetedCitationFraction: 0.5}
	var base bytes.Buffer
	type delta struct {
		year int
		buf  *bytes.Buffer
	}
	var deltas []delta
	stats, err := gen.UpdateStream(p, &base, 1955, func(year int) io.Writer {
		buf := &bytes.Buffer{}
		deltas = append(deltas, delta{year, buf})
		return buf
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d triples total: base (to 1955) + %d yearly deltas\n\n",
		stats.Triples, len(deltas))

	// 2. Load the base and watch a query result evolve as updates apply.
	st := store.New()
	if _, err := st.Load(bytes.NewReader(base.Bytes())); err != nil {
		log.Fatal(err)
	}
	live := mvcc.New(st, mvcc.MergePolicy{})
	defer live.Close()
	ctx := context.Background()
	journals := sparql.MustParse(`SELECT ?j WHERE { ?j rdf:type bench:Journal }`, queries.Prologue)

	countJournals := func(label string) {
		snap := live.Snapshot()
		defer snap.Close()
		n, err := engine.NewReader(snap, engine.Native()).Count(ctx, journals)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %6d triples, %4d journals\n", label, snap.Len(), n)
	}
	countJournals("base:")

	for _, d := range deltas {
		batch, err := rdf.NewReader(d.buf).ReadAll()
		if err != nil {
			log.Fatal(err)
		}
		live.Apply(batch)
		countJournals(fmt.Sprintf("+ year %d:", d.year))
	}

	// 3. The aggregation extension over the updated store: publications
	// per year (extension query QX2) now covers the appended years.
	qx2, _ := queries.ExtensionByID("qx2")
	q, err := sparql.Parse(qx2.Text, queries.Prologue)
	if err != nil {
		log.Fatal(err)
	}
	snap := live.Snapshot()
	defer snap.Close()
	res, err := engine.NewReader(snap, engine.Native()).Aggregate(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npublications per year (last five rows of QX2):")
	start := len(res.Rows) - 5
	if start < 0 {
		start = 0
	}
	for _, row := range res.Rows[start:] {
		fmt.Printf("  %s: %s\n", row[0].Value, row[1].Value)
	}
}
