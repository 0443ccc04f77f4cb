package mvcc_test

import (
	"testing"

	"sp2bench/internal/mvcc"
	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
	"sp2bench/internal/store/readertest"
)

// An MVCC snapshot must present the same Reader semantics as a frozen
// store. The interesting case is a half-and-half split: half the
// fixture frozen in the base generation, half layered in the delta, so
// every range merges the two.
func TestSnapshotReaderConformance(t *testing.T) {
	readertest.Run(t, func(t *testing.T, triples []rdf.Triple) store.Reader {
		live, baseTerms := liveOver(t, triples[:len(triples)/2])
		live.Apply(triples[len(triples)/2:])
		sn := live.Snapshot()
		t.Cleanup(sn.Close)
		return layered{sn, baseTerms}
	})
}

// A generation-2 snapshot: half the fixture frozen, a quarter merged in
// by MergeNow, and the last quarter in the delta over the merged base,
// so the ranges pair a merged generation with a delta and the
// statistics overlay a delta on the merged base's.
func TestMergedSnapshotReaderConformance(t *testing.T) {
	readertest.Run(t, func(t *testing.T, triples []rdf.Triple) store.Reader {
		half, quarter := len(triples)/2, len(triples)*3/4
		live, baseTerms := liveOver(t, triples[:half])
		live.Apply(triples[half:quarter])
		live.MergeNow()
		live.Apply(triples[quarter:])
		sn := live.Snapshot()
		t.Cleanup(sn.Close)
		if sn.Generation() != 2 || sn.DeltaLen() == 0 {
			t.Fatalf("generation %d with %d delta triples, want 2 with a delta", sn.Generation(), sn.DeltaLen())
		}
		return layered{sn, baseTerms}
	})
}

// liveOver returns an MVCC store whose first generation freezes triples,
// with merges left to the test, and the size of that generation's
// dictionary: every generation shares it, and terms past it are the
// extension's.
func liveOver(t *testing.T, triples []rdf.Triple) (*mvcc.Store, int) {
	base := store.New()
	for _, tr := range triples {
		base.Add(tr)
	}
	base.Freeze()
	live := mvcc.New(base, mvcc.MergePolicy{Disabled: true})
	t.Cleanup(live.Close)
	return live, base.Dict().Len()
}

// layered tells the conformance suite where a snapshot's base
// dictionary ends (see readertest.Open).
type layered struct {
	*mvcc.Snapshot
	base int
}

func (l layered) BaseTerms() int { return l.base }
