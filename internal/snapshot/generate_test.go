package snapshot_test

import (
	"bytes"
	"testing"

	"sp2bench/internal/gen"
	"sp2bench/internal/rdf"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
	"sp2bench/internal/testutil"
)

// tripleSet renders a store's triples as terms: two loads of one
// document assign different IDs, so only terms compare across stores.
func tripleSet(st *store.Store) map[[3]rdf.Term]bool {
	d := st.Dict()
	set := make(map[[3]rdf.Term]bool, st.Len())
	for _, t := range st.Index(store.OrderSPO) {
		set[[3]rdf.Term{d.Term(t[0]), d.Term(t[1]), d.Term(t[2])}] = true
	}
	return set
}

// TestGenerateStoreMatchesLoad: the store GenerateStore pipes the
// generator into holds exactly the triples a load of the generator's
// N-Triples output holds, and reports the same generation statistics.
func TestGenerateStoreMatchesLoad(t *testing.T) {
	p := gen.DefaultParams(5_000)
	var doc bytes.Buffer
	g, err := gen.New(p, &doc)
	if err != nil {
		t.Fatal(err)
	}
	wantStats, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want := store.New()
	if _, err := want.Load(&doc); err != nil {
		t.Fatal(err)
	}

	st, stats, err := snapshot.GenerateStore(p)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Frozen() {
		t.Fatal("GenerateStore returned an unfrozen store")
	}
	if stats.Triples != wantStats.Triples || stats.EndYear != wantStats.EndYear {
		t.Errorf("stats: %d triples to %d, want %d to %d", stats.Triples, stats.EndYear, wantStats.Triples, wantStats.EndYear)
	}
	if st.Len() < 5_000 || st.Len() != want.Len() {
		t.Fatalf("GenerateStore holds %d triples, the loaded document %d", st.Len(), want.Len())
	}
	got, wantSet := tripleSet(st), tripleSet(want)
	for tr := range wantSet {
		if !got[tr] {
			t.Fatalf("triple %v of the document is missing from the generated store", tr)
		}
	}
}

// TestGenerateStoreInvalidParams: parameters the generator rejects
// surface as an error, and the generator goroutine is joined.
func TestGenerateStoreInvalidParams(t *testing.T) {
	t.Cleanup(func() { testutil.CheckNoLeaks(t) })
	for name, p := range map[string]gen.Params{
		"no limit":     {Seed: 1, StartYear: 1936},
		"years invert": {Seed: 1, StartYear: 1950, EndYear: 1940},
		"fraction":     {Seed: 1, StartYear: 1936, EndYear: 1940, TargetedCitationFraction: 2},
	} {
		if st, stats, err := snapshot.GenerateStore(p); err == nil || st != nil || stats != nil {
			t.Errorf("%s: GenerateStore = %v, %v, %v; want only an error", name, st, stats, err)
		}
	}
}

func TestOpenStoreFileMissing(t *testing.T) {
	if _, _, _, err := snapshot.OpenStoreFile(t.TempDir() + "/missing.nt"); err == nil {
		t.Fatal("OpenStoreFile of a missing file returned no error")
	}
}
