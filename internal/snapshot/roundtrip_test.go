package snapshot_test

import (
	"bytes"
	"context"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/queries"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
)

// TestSnapshotQueryOracle is the end-to-end equivalence proof, the
// snapshot sibling of the harness's loopback oracle: generate a
// benchmark document, build a store the normal way, round-trip it
// through the binary format, and assert identical result counts for
// all 17 benchmark queries.
func TestSnapshotQueryOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a document and runs the full query set twice")
	}
	// The subtest is named for the engine configuration it runs.
	t.Run("native", func(t *testing.T) {
		var doc bytes.Buffer
		g, err := gen.New(gen.DefaultParams(10_000), &doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Generate(); err != nil {
			t.Fatal(err)
		}
		fresh := store.New()
		if _, err := fresh.Load(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatal(err)
		}

		var snap bytes.Buffer
		if err := snapshot.Write(&snap, fresh); err != nil {
			t.Fatal(err)
		}
		reloaded, err := snapshot.Read(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if reloaded.Len() != fresh.Len() {
			t.Fatalf("reloaded %d triples, want %d", reloaded.Len(), fresh.Len())
		}
		t.Logf("%d triples, %d bytes N-Triples, %d bytes snapshot",
			fresh.Len(), doc.Len(), snap.Len())

		engFresh := engine.New(fresh, engine.Native())
		engSnap := engine.New(reloaded, engine.Native())
		ctx := context.Background()
		for _, q := range queries.All() {
			pq := q.Parse()
			want, err := engFresh.Count(ctx, pq)
			if err != nil {
				t.Fatalf("%s on fresh store: %v", q.ID, err)
			}
			got, err := engSnap.Count(ctx, pq)
			if err != nil {
				t.Fatalf("%s on reloaded store: %v", q.ID, err)
			}
			if got != want {
				t.Errorf("%s: reloaded store returns %d results, fresh returns %d", q.ID, got, want)
			}
		}
	})
}
