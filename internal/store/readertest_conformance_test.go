package store_test

import (
	"bytes"
	"testing"

	"sp2bench/internal/rdf"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
	"sp2bench/internal/store/readertest"
)

// The frozen store is the reference store.Reader; the conformance suite
// must hold for it by construction.
func TestStoreReaderConformance(t *testing.T) {
	readertest.Run(t, func(t *testing.T, triples []rdf.Triple) store.Reader {
		return frozenOver(triples)
	})
}

// A store rehydrated from a snapshot must present the store it was
// written from, its dictionary's order included.
func TestRehydratedReaderConformance(t *testing.T) {
	readertest.Run(t, func(t *testing.T, triples []rdf.Triple) store.Reader {
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, frozenOver(triples)); err != nil {
			t.Fatal(err)
		}
		st, err := snapshot.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
}

// frozenOver adds triples one by one, in order, and freezes the store.
func frozenOver(triples []rdf.Triple) *store.Store {
	st := store.New()
	for _, tr := range triples {
		st.Add(tr)
	}
	st.Freeze()
	return st
}
