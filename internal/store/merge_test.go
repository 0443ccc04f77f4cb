package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sp2bench/internal/rdf"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
)

// encodedStore freezes triples over a dictionary of terms urn:t0001 ..
// urn:t<terms>, zero-padded so that their Compare order, in which
// Freeze numbers them, gives term i the ID i.
func encodedStore(terms int, triples []store.EncTriple) *store.Store {
	st := store.New()
	for i := 1; i <= terms; i++ {
		st.Dict().Intern(rdf.IRI(fmt.Sprintf("urn:t%04d", i)))
	}
	st.AddEncodedAll(slices.Clone(triples))
	st.Freeze()
	return st
}

// runsOf sorts a delta into the three component orders Merge takes.
func runsOf(delta []store.EncTriple) (runs [3][]store.EncTriple) {
	for _, ord := range orders {
		run := make([]store.EncTriple, len(delta))
		for i, t := range delta {
			run[i] = ord.Permute(t)
		}
		store.SortEncTriples(run)
		runs[ord] = run
	}
	return runs
}

// sameLayout fails unless two frozen stores have byte-identical
// indexes, directories and statistics.
func sameLayout(t *testing.T, got, want *store.Store) {
	t.Helper()
	for _, ord := range orders {
		if !slices.Equal(got.Index(ord), want.Index(ord)) {
			t.Errorf("%s index differs:\n got %v\nwant %v", ord, got.Index(ord), want.Index(ord))
		}
		if !slices.Equal(store.DirOf(got, ord), store.DirOf(want, ord)) {
			t.Errorf("%s directory differs:\n got %v\nwant %v", ord, store.DirOf(got, ord), store.DirOf(want, ord))
		}
	}
	// Every ID up to past either store's largest predicate.
	preds := max(len(store.DirOf(got, store.OrderPOS)), len(store.DirOf(want, store.OrderPOS)))
	gs, ws := got.Stats(), want.Stats()
	for p := store.ID(1); int(p) <= preds; p++ {
		g := [3]int{gs.PredCardinality(p), gs.DistinctSubjects(p), gs.DistinctObjects(p)}
		w := [3]int{ws.PredCardinality(p), ws.DistinctSubjects(p), ws.DistinctObjects(p)}
		if g != w {
			t.Errorf("predicate %d: count, distinct subjects, distinct objects = %v, want %v", p, g, w)
		}
	}
	if g, w := gs.TotalDistinctSubjects(), ws.TotalDistinctSubjects(); g != w {
		t.Errorf("TotalDistinctSubjects = %d, want %d", g, w)
	}
	if g, w := gs.TotalDistinctObjects(), ws.TotalDistinctObjects(); g != w {
		t.Errorf("TotalDistinctObjects = %d, want %d", g, w)
	}
	if g, w := gs.DistinctPredicates(), ws.DistinctPredicates(); g != w {
		t.Errorf("DistinctPredicates = %d, want %d", g, w)
	}
}

// TestMergeMatchesFreeze holds the canonical layout: store.Merge of a
// base and a delta, Freeze over their union, Rehydrate of that union's
// indexes, and a snapshot Write/Read round trip of it are
// byte-identical, statistics included. Base terms are IDs
// 1..baseTerms; the delta also uses IDs up to allTerms, past the base
// dictionary and past every base directory, as a merged MVCC base does.
func TestMergeMatchesFreeze(t *testing.T) {
	const baseTerms, allTerms = 60, 100
	rng := rand.New(rand.NewSource(39))
	pick := func(ids ...int) store.ID { return store.ID(ids[rng.Intn(len(ids))]) }
	basePreds := []int{1, 2, 3, 4, 5, 6}
	// Delta predicates: the base's, and four only the delta has.
	deltaPreds := append(slices.Clone(basePreds), 58, 97, 98, 99)
	var base []store.EncTriple
	for i := 0; i < 400; i++ {
		base = append(base, store.EncTriple{
			store.ID(rng.Intn(baseTerms) + 1), pick(basePreds...), store.ID(rng.Intn(baseTerms) + 1),
		})
	}
	has := map[store.EncTriple]bool{}
	for _, tr := range base {
		has[tr] = true
	}
	var delta []store.EncTriple
	add := func(tr store.EncTriple) {
		if !has[tr] {
			has[tr] = true
			delta = append(delta, tr)
		}
	}
	for i := 0; i < 60; i++ {
		b := base[rng.Intn(len(base))]
		add(store.EncTriple{b[0], b[1], store.ID(rng.Intn(allTerms) + 1)}) // the base's (s,p)
		add(store.EncTriple{store.ID(rng.Intn(allTerms) + 1), b[1], b[2]}) // the base's (p,o)
		// Anything, new predicates included.
		add(store.EncTriple{store.ID(rng.Intn(allTerms) + 1), pick(deltaPreds...), store.ID(rng.Intn(allTerms) + 1)})
	}
	add(store.EncTriple{allTerms, allTerms, allTerms}) // the largest ID in every position

	for _, tc := range []struct {
		name        string
		base, delta []store.EncTriple
	}{
		{"base+delta", base, delta},
		{"empty delta", base, nil},
		{"empty base", nil, delta},
		{"one row", base, delta[len(delta)-1:]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := encodedStore(baseTerms, tc.base)
			merged := store.Merge(st, runsOf(tc.delta))
			want := encodedStore(allTerms, append(slices.Clone(tc.base), tc.delta...))
			sameLayout(t, merged, want)
			if merged.Len() != want.Len() || merged.Dict() != st.Dict() {
				t.Errorf("Len = %d (want %d), shares base dictionary = %v",
					merged.Len(), want.Len(), merged.Dict() == st.Dict())
			}
			// The base is left as it was.
			sameLayout(t, st, encodedStore(baseTerms, tc.base))

			var indexes [3][]store.EncTriple
			for _, ord := range orders {
				indexes[ord] = want.Index(ord)
			}
			re, err := store.Rehydrate(want.Dict(), indexes)
			if err != nil {
				t.Fatal(err)
			}
			sameLayout(t, re, want)

			var buf bytes.Buffer
			if err := snapshot.Write(&buf, want); err != nil {
				t.Fatal(err)
			}
			read, err := snapshot.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			sameLayout(t, read, want)
		})
	}
}
