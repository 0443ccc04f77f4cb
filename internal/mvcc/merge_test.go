package mvcc_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
	"sp2bench/internal/testutil"
)

// TestMergedStatsMatchFromScratchLoad folds generator update batches in
// over several merges and holds every predicate's statistics, matched
// by term, and the global distinct counts to a from-scratch load of the
// same triples: the statistics a merge derives are exact.
func TestMergedStatsMatchFromScratchLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("generator-backed; skipped in -short")
	}
	base, doc, stats := generated(t, 10_000)
	batches := updateBatches(t, 42, stats.EndYear, 4)
	live := mvcc.New(base, mvcc.MergePolicy{Disabled: true})
	defer live.Close()
	fresh := store.New()
	if _, err := fresh.Ingest(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		live.Apply(b)
		live.MergeNow()
		for _, tr := range b {
			fresh.Add(tr)
		}
	}
	fresh.Freeze()
	sn := live.Snapshot()
	defer sn.Close()
	if sn.Generation() != uint64(len(batches)+1) || sn.DeltaLen() != 0 || sn.Len() != fresh.Len() {
		t.Fatalf("gen=%d delta=%d len=%d, want %d/0/%d",
			sn.Generation(), sn.DeltaLen(), sn.Len(), len(batches)+1, fresh.Len())
	}

	gs, ws := sn.Stats(), fresh.Stats()
	for p := store.ID(1); int(p) <= fresh.Dict().Len(); p++ {
		if ws.PredCardinality(p) == 0 {
			continue // not a predicate
		}
		term := fresh.Dict().Term(p)
		mp, ok := sn.TermDict().Lookup(term)
		if !ok {
			t.Errorf("predicate %s missing from the merged store", term)
			continue
		}
		got := [3]int{gs.PredCardinality(mp), gs.DistinctSubjects(mp), gs.DistinctObjects(mp)}
		want := [3]int{ws.PredCardinality(p), ws.DistinctSubjects(p), ws.DistinctObjects(p)}
		if got != want {
			t.Errorf("%s: count, distinct subjects, distinct objects merged %v, from scratch %v", term, got, want)
		}
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"DistinctPredicates", gs.DistinctPredicates(), ws.DistinctPredicates()},
		{"TotalDistinctSubjects", gs.TotalDistinctSubjects(), ws.TotalDistinctSubjects()},
		{"TotalDistinctObjects", gs.TotalDistinctObjects(), ws.TotalDistinctObjects()},
	} {
		if c.got != c.want {
			t.Errorf("%s: merged %d, from scratch %d", c.name, c.got, c.want)
		}
	}
}

// TestMergeAllocationBound holds a merge to what it builds: the merged
// indexes and their directories, plus a small constant. A merge that
// copied the dictionary or re-sorted the indexes would allocate well
// past 1.5× the index bytes, and more with every term.
func TestMergeAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("generator-backed; skipped in -short")
	}
	base, _, stats := generated(t, 20_000)
	live := mvcc.New(base, mvcc.MergePolicy{Disabled: true})
	defer live.Close()
	for _, b := range updateBatches(t, 7, stats.EndYear, 2) {
		live.Apply(b)
	}
	if live.Stats().DeltaTriples == 0 {
		t.Fatal("empty delta")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	live.MergeNow()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	fp := live.Footprint()
	if limit := uint64(fp.IndexBytes) * 3 / 2; allocated > limit {
		t.Errorf("merge allocated %d B, want <= %d (1.5x the %d index bytes of %d triples, %d terms)",
			allocated, limit, fp.IndexBytes, fp.Triples, fp.Terms)
	}
}

// TestApplyCopiesNewTerms: the N-Triples parser returns substrings of
// the line it parses. A term Apply interns must not point into that
// line, or every inserted term would pin its whole request line for the
// store's life. Literals of one datatype share one copy of it.
func TestApplyCopiesNewTerms(t *testing.T) {
	live := tinyLive(t)
	long := strings.Repeat("x", 4096)
	lines := []string{
		fmt.Sprintf(`<urn:s%s> <urn:p%s> "%s"@en .`, long, long, long),
		fmt.Sprintf(`<urn:s> <urn:q> "1%s"^^<http://www.w3.org/2001/XMLSchema#integer> .`, strings.Repeat("0", 4096)),
		`<urn:s> <urn:r> "2"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
	}
	var batch []rdf.Triple
	for i, line := range lines {
		tr, err := rdf.ParseTriple(line, i+1)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tr)
	}
	if n := live.Apply(batch); n != len(batch) {
		t.Fatalf("Apply inserted %d triples, want %d", n, len(batch))
	}
	sn := live.Snapshot()
	defer sn.Close()
	stored := func(term rdf.Term) rdf.Term {
		id, ok := sn.TermDict().Lookup(term)
		if !ok {
			t.Fatalf("%s not interned", term)
		}
		return sn.TermDict().Term(id)
	}
	for i, tr := range batch {
		for _, term := range []rdf.Term{tr.S, tr.P, tr.O} {
			st := stored(term)
			for _, s := range []string{st.Value, st.Datatype, st.Lang} {
				if testutil.Within(s, lines[i]) {
					t.Errorf("line %d: stored term %.40s… points into its input line", i+1, st)
				}
			}
		}
	}
	a, b := stored(batch[1].O), stored(batch[2].O)
	if unsafe.StringData(a.Datatype) != unsafe.StringData(b.Datatype) {
		t.Error("two literals of one datatype hold separate copies of it")
	}
}

// BenchmarkMerge times one MVCC merge of a 12k-triple delta into a
// 100k-triple base generation (the generator's next 12k triples). It
// reports ns and bytes allocated per merge; setting up each delta is
// not timed.
func BenchmarkMerge(b *testing.B) {
	const baseTriples, deltaTriples = 100_000, 12_000
	var doc bytes.Buffer
	g, err := gen.New(gen.DefaultParams(baseTriples+deltaTriples), &doc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		b.Fatal(err)
	}
	lines := bytes.SplitAfter(doc.Bytes(), []byte("\n"))
	base := store.New()
	if _, err := base.Load(bytes.NewReader(bytes.Join(lines[:baseTriples], nil))); err != nil {
		b.Fatal(err)
	}
	delta, err := rdf.NewReader(bytes.NewReader(bytes.Join(lines[baseTriples:], nil))).ReadAll()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		live := mvcc.New(base, mvcc.MergePolicy{Disabled: true})
		live.Apply(delta)
		b.StartTimer()
		live.MergeNow()
		b.StopTimer()
		live.Close()
		b.StartTimer()
	}
}
