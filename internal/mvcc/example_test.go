package mvcc_test

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

// Example replays the extension the paper's conclusion proposes:
// "Updates, for instance, could be realized by minor extensions to our
// data generator." Generation is consistent at document boundaries, so
// gen.UpdateStream splits one run into a base document and one
// consistent delta per simulated year; the MVCC store commits each
// delta as an insert batch, and queries run on snapshots throughout.
func Example() {
	// A base document up to 1955 and yearly deltas for 1956-1960.
	// Concatenated, they are byte-identical to one continuous run.
	p := gen.Params{Seed: 1, StartYear: 1936, EndYear: 1960, TargetedCitationFraction: 0.5}
	var base bytes.Buffer
	var deltas []*bytes.Buffer
	stats, err := gen.UpdateStream(p, &base, 1955, func(year int) io.Writer {
		deltas = append(deltas, &bytes.Buffer{})
		return deltas[len(deltas)-1]
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d triples: a base to 1955 and %d yearly deltas\n", stats.Triples, len(deltas))

	st := store.New()
	if _, err := st.Load(&base); err != nil {
		log.Fatal(err)
	}
	live := mvcc.New(st, mvcc.MergePolicy{})
	defer live.Close()
	ctx := context.Background()

	// Each commit is visible, whole, to the next snapshot.
	journals := sparql.MustParse(`SELECT ?j WHERE { ?j rdf:type bench:Journal }`, queries.Prologue)
	countJournals := func(label string) {
		snap := live.Snapshot()
		defer snap.Close()
		n, err := engine.NewReader(snap, engine.Native()).Count(ctx, journals)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s %5d triples, %3d journals\n", label, snap.Len(), n)
	}
	countJournals("base:")
	for i, d := range deltas {
		batch, err := rdf.NewReader(d).ReadAll()
		if err != nil {
			log.Fatal(err)
		}
		live.Apply(batch)
		countJournals(fmt.Sprintf("+ %d:", 1956+i))
	}

	// Publications per year (the aggregate extension query QX2) now
	// covers the appended years.
	qx2, _ := queries.ExtensionByID("qx2")
	snap := live.Snapshot()
	defer snap.Close()
	res, err := engine.NewReader(snap, engine.Native()).Aggregate(ctx, sparql.MustParse(qx2.Text, queries.Prologue))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("publications per year, QX2's last three rows:")
	for _, row := range res.Rows[len(res.Rows)-3:] {
		fmt.Printf("  %s: %s\n", row[0].Value, row[1].Value)
	}
	// Output:
	// generated 20326 triples: a base to 1955 and 5 yearly deltas
	// base:       12268 triples,  37 journals
	// + 1956:     13609 triples,  41 journals
	// + 1957:     15106 triples,  45 journals
	// + 1958:     16690 triples,  50 journals
	// + 1959:     18438 triples,  55 journals
	// + 1960:     20326 triples,  61 journals
	// publications per year, QX2's last three rows:
	//   1958: 152
	//   1959: 166
	//   1960: 182
}
