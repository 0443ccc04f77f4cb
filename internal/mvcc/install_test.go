package mvcc

import (
	"testing"

	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// TestCommitBetweenCaptureAndInstall commits a batch after a merge has
// captured its version and built the merged generation, but before the
// install: the batch must carry over into the installed version's
// delta, visible in its length, its statistics and every index order of
// a snapshot's ranges.
func TestCommitBetweenCaptureAndInstall(t *testing.T) {
	tr := func(s, p, o string) rdf.Triple { return rdf.NewTriple(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)) }
	base := store.New()
	base.Add(tr("a", "p", "b"))
	base.Add(tr("b", "p", "c"))
	live := New(base, MergePolicy{Disabled: true})
	defer live.Close()
	live.Apply([]rdf.Triple{tr("c", "p", "d")})

	v := live.cur.Load()
	merged := store.Merge(v.base, v.delta.runs)
	// The carried batch: one triple on an existing predicate, two on a
	// new one.
	live.Apply([]rdf.Triple{tr("d", "p", "e"), tr("e", "q", "f"), tr("f", "q", "a")})
	live.install(v, merged)

	if got := live.Len(); got != 6 {
		t.Fatalf("Len after install = %d, want 6 (3 merged + 3 carried)", got)
	}
	sn := live.Snapshot()
	defer sn.Close()
	if sn.Generation() != 2 || sn.DeltaLen() != 3 || sn.Len() != 6 {
		t.Fatalf("snapshot gen=%d delta=%d len=%d, want 2/3/6", sn.Generation(), sn.DeltaLen(), sn.Len())
	}
	id := func(s string) store.ID {
		t.Helper()
		id, ok := sn.TermDict().Lookup(rdf.IRI(s))
		if !ok {
			t.Fatalf("%s not in the installed version's vocabulary", s)
		}
		return id
	}
	p, q := id("p"), id("q")
	if got := sn.Stats().PredCardinality(p); got != 4 {
		t.Errorf("PredCardinality(p) = %d, want 4", got)
	}
	if got := sn.Stats().PredCardinality(q); got != 2 {
		t.Errorf("PredCardinality(q) = %d, want 2", got)
	}
	for _, c := range []struct {
		name          string
		sub, pred, ob store.ID
		want          int
	}{
		{"SPO (d ? ?)", id("d"), store.NoID, store.NoID, 1},
		{"POS (? q ?)", store.NoID, q, store.NoID, 2},
		{"OSP (? ? a)", store.NoID, store.NoID, id("a"), 1},
		{"POS (? p ?)", store.NoID, p, store.NoID, 4},
	} {
		if got := store.Count(sn, c.sub, c.pred, c.ob); got != c.want {
			t.Errorf("%s: %d rows, want %d", c.name, got, c.want)
		}
	}
}
