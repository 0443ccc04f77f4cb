package store_test

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"testing"

	"sp2bench/internal/gen"
	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// TestLoadIsDeterministic: one document loads to one dictionary and one
// SPO index whatever the parse's scheduling, one worker or four, and
// the sequential Add path builds the same store.
func TestLoadIsDeterministic(t *testing.T) {
	var doc bytes.Buffer
	g, err := gen.New(gen.DefaultParams(10_000), &doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		t.Fatal(err)
	}
	load := func(procs int) *store.Store {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		st := store.New()
		if _, err := st.Load(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatal(err)
		}
		return st
	}
	added := store.New()
	r := rdf.NewReader(bytes.NewReader(doc.Bytes()))
	for {
		tr, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		added.Add(tr)
	}
	added.Freeze()

	want := load(1)
	for name, got := range map[string]*store.Store{"GOMAXPROCS(4)": load(4), "Add": added} {
		if !slices.Equal(got.Dict().Terms(), want.Dict().Terms()) {
			t.Errorf("%s: the dictionary differs from a GOMAXPROCS(1) load", name)
		}
		if !slices.Equal(got.Index(store.OrderSPO), want.Index(store.OrderSPO)) {
			t.Errorf("%s: the SPO index differs from a GOMAXPROCS(1) load", name)
		}
	}
}
