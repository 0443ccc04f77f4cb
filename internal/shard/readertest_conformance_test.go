package shard_test

import (
	"fmt"
	"testing"

	"sp2bench/internal/mvcc"
	"sp2bench/internal/rdf"
	"sp2bench/internal/shard"
	"sp2bench/internal/store"
	"sp2bench/internal/store/readertest"
)

// The scatter-gather Reader must be indistinguishable from a
// single-store Reader: gathered ranges sorted, residuals folded,
// counts and stats sane. Run the suite at several shard counts — 1
// exercises the pass-through path, 3 odd-sized gathers, 4 the standard
// fan-out.
func TestShardReaderConformance(t *testing.T) {
	for _, n := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			readertest.Run(t, func(t *testing.T, triples []rdf.Triple) store.Reader {
				set := splitFixture(t, triples, n)
				return set.Reader()
			})
		})
	}
}

// The same contract must hold for the updatable path: shards wrapped in
// MVCC stores, part of the fixture arriving through Set.Apply, reads
// through Set.Snapshot.
func TestShardSnapshotReaderConformance(t *testing.T) {
	readertest.Run(t, func(t *testing.T, triples []rdf.Triple) store.Reader {
		cut := len(triples) / 2
		set := splitFixture(t, triples[:cut], 4)
		set.EnableUpdates(mvcc.MergePolicy{Disabled: true})
		t.Cleanup(set.Close)
		set.Apply(triples[cut:])
		r, release := set.Snapshot()
		t.Cleanup(release)
		return r
	})
}

func splitFixture(t *testing.T, triples []rdf.Triple, n int) *shard.Set {
	t.Helper()
	st := store.New()
	for _, tr := range triples {
		st.Add(tr)
	}
	set, _, err := shard.Split(st, n)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// A one-shard set passes its snapshot's ranges, two runs each, through
// to the engine unmerged; Triples must still hold both runs.
func TestSingleShardSnapshotReaderConformance(t *testing.T) {
	readertest.Run(t, func(t *testing.T, triples []rdf.Triple) store.Reader {
		cut := len(triples) / 2
		set := splitFixture(t, triples[:cut], 1)
		set.EnableUpdates(mvcc.MergePolicy{Disabled: true})
		t.Cleanup(set.Close)
		set.Apply(triples[cut:])
		r, release := set.Snapshot()
		t.Cleanup(release)
		return r
	})
}
