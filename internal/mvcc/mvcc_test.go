package mvcc_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
	"sp2bench/internal/store/readertest"
	"sp2bench/internal/testutil"
)

// TestMain backstops the suite with a goroutine-leak check: a merger
// goroutine outliving Close would fail every test run here.
func TestMain(m *testing.M) { testutil.VerifyNoLeaks(m) }

func iri(s string) rdf.Term { return rdf.IRI(s) }
func spo(s, p, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}
}

// tinyLive builds a two-triple base generation with merging disabled.
func tinyLive(t *testing.T) *mvcc.Store {
	t.Helper()
	st := store.New()
	st.Add(spo("a", "p", "b"))
	st.Add(spo("b", "p", "c"))
	live := mvcc.New(st, mvcc.MergePolicy{Disabled: true})
	t.Cleanup(live.Close)
	return live
}

func TestSnapshotIsolation(t *testing.T) {
	live := tinyLive(t)

	before := live.Snapshot()
	defer before.Close()

	if n := live.Apply([]rdf.Triple{spo("c", "p", "d"), spo("c", "q", "x")}); n != 2 {
		t.Fatalf("Apply = %d, want 2", n)
	}
	after := live.Snapshot()
	defer after.Close()

	if got := before.Len(); got != 2 {
		t.Errorf("pre-commit snapshot Len = %d, want 2 (saw a later commit)", got)
	}
	if got := after.Len(); got != 4 {
		t.Errorf("post-commit snapshot Len = %d, want 4", got)
	}

	// The new predicate resolves only in the later snapshot's dictionary.
	if _, ok := before.TermDict().Lookup(iri("q")); ok {
		t.Error("pre-commit snapshot resolves a term interned later")
	}
	q, ok := after.TermDict().Lookup(iri("q"))
	if !ok {
		t.Fatal("post-commit snapshot cannot resolve new term")
	}
	if got := after.TermDict().Term(q); got != iri("q") {
		t.Errorf("Term(Lookup(q)) = %v, want q", got)
	}
	if got := store.Count(after, store.NoID, q, store.NoID); got != 1 {
		t.Errorf("Count(?, q, ?) = %d, want 1", got)
	}
}

// termVia resolves id through the store.Reader interface, the way the
// engine does; noinline keeps the call from being devirtualized.
//
//go:noinline
func termVia(r store.Reader, id store.ID) rdf.Term { return r.TermDict().Term(id) }

// TestSnapshotTermDictDoesNotAllocate: the engine resolves a term per
// compared or materialized cell, so TermDict must hand out a dictionary
// view boxed once per snapshot, not one converted per call.
func TestSnapshotTermDictDoesNotAllocate(t *testing.T) {
	live := tinyLive(t)
	live.Apply([]rdf.Triple{spo("c", "p", "d")})
	sn := live.Snapshot()
	defer sn.Close()
	base, _ := sn.TermDict().Lookup(iri("a"))
	delta, _ := sn.TermDict().Lookup(iri("d"))
	var sink rdf.Term
	allocs := testing.AllocsPerRun(100, func() {
		sink = termVia(sn, base)
		sink = termVia(sn, delta)
	})
	if allocs != 0 {
		t.Errorf("TermDict().Term allocates %.1f times per call pair, want 0", allocs)
	}
	if sink != iri("d") {
		t.Errorf("Term(delta id) = %v, want d", sink)
	}
}

func TestApplyDeduplicates(t *testing.T) {
	live := tinyLive(t)

	// One base duplicate, one intra-batch duplicate, one new triple.
	n := live.Apply([]rdf.Triple{
		spo("a", "p", "b"),
		spo("x", "p", "y"),
		spo("x", "p", "y"),
	})
	if n != 1 {
		t.Fatalf("Apply = %d, want 1 (duplicates must be dropped)", n)
	}
	// Re-applying the same batch inserts nothing (delta dedup).
	if n := live.Apply([]rdf.Triple{spo("x", "p", "y")}); n != 0 {
		t.Fatalf("re-Apply = %d, want 0", n)
	}
	sn := live.Snapshot()
	defer sn.Close()
	if got := sn.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
}

func TestSnapshotRangesMergeBaseAndDelta(t *testing.T) {
	live := tinyLive(t)
	live.Apply([]rdf.Triple{spo("a", "p", "z"), spo("m", "p", "n")})
	sn := live.Snapshot()
	defer sn.Close()

	p, ok := sn.TermDict().Lookup(iri("p"))
	if !ok {
		t.Fatal("p not in dictionary")
	}
	// ?P? spans base (2) and delta (2) rows: two runs, read merged in
	// POS order.
	rng := store.Range(sn, store.NoID, p, store.NoID)
	if rng.Len() != 4 || len(rng.Rows) != 2 || len(rng.Delta) != 2 {
		t.Fatalf("range Len = %d (runs %d + %d), want 4 (2 + 2)", rng.Len(), len(rng.Rows), len(rng.Delta))
	}
	rows := readertest.Rows(rng)
	if len(rows) != 4 {
		t.Fatalf("cursor read %d rows, want 4", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if store.CompareEnc(rows[i-1], rows[i]) >= 0 {
			t.Fatalf("merged range not strictly sorted at %d", i)
		}
	}
	// A subject only the delta knows still answers S?? lookups.
	m, _ := sn.TermDict().Lookup(iri("m"))
	if got := store.Count(sn, m, store.NoID, store.NoID); got != 1 {
		t.Errorf("Count(m,?,?) = %d, want 1", got)
	}
	// The full scan reads both runs.
	if n := len(readertest.Triples(sn)); n != 4 {
		t.Errorf("full scan saw %d triples, want 4", n)
	}
}

// TestSnapshotRangeDoesNotAllocate: a range both the base and the delta
// touch is their two runs, not a merged copy, and a cursor reads it in
// merged order without allocating either.
func TestSnapshotRangeDoesNotAllocate(t *testing.T) {
	live := tinyLive(t)
	live.Apply([]rdf.Triple{spo("a", "p", "z"), spo("m", "p", "n")})
	sn := live.Snapshot()
	defer sn.Close()
	p, _ := sn.TermDict().Lookup(iri("p"))
	var col [4]store.ID
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		rng := sn.RangeIn(store.OrderPOS, store.NoID, p, store.NoID)
		c := rng.Cursor()
		n, _ = c.CopyColumns(len(col), col[:], nil, nil)
	})
	if allocs != 0 {
		t.Errorf("RangeIn + CopyColumns over base and delta allocates %.1f times, want 0", allocs)
	}
	if n != 4 {
		t.Errorf("copied %d rows, want 4", n)
	}
}

// TestSnapshotLookupIgnoresLaterTerms: snapshots share their
// generation's extension lookup with every later commit, so a snapshot
// must reject the terms committed after it while a writer adds them
// concurrently (run with -race).
func TestSnapshotLookupIgnoresLaterTerms(t *testing.T) {
	live := tinyLive(t)
	live.Apply([]rdf.Triple{spo("c", "p", "old")})
	before := live.Snapshot()
	defer before.Close()
	old, ok := before.TermDict().Lookup(iri("old"))
	if !ok {
		t.Fatal("snapshot cannot resolve a term committed before it")
	}

	const commits = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			live.Apply([]rdf.Triple{spo("c", "p", fmt.Sprintf("new%d", i))})
		}
	}()
	for i := 0; i < commits; i++ {
		if id, ok := before.TermDict().Lookup(iri(fmt.Sprintf("new%d", i))); ok {
			t.Fatalf("pre-commit snapshot resolves new%d to %d", i, id)
		}
		if id, ok := before.TermDict().Lookup(iri("old")); !ok || id != old {
			t.Fatalf("Lookup(old) = %d, %v, want %d", id, ok, old)
		}
	}
	wg.Wait()
	after := live.Snapshot()
	defer after.Close()
	for i := 0; i < commits; i++ {
		if _, ok := before.TermDict().Lookup(iri(fmt.Sprintf("new%d", i))); ok {
			t.Fatalf("pre-commit snapshot resolves new%d", i)
		}
		id, ok := after.TermDict().Lookup(iri(fmt.Sprintf("new%d", i)))
		if !ok || after.TermDict().Term(id) != iri(fmt.Sprintf("new%d", i)) {
			t.Fatalf("post-commit snapshot resolves new%d to %d, %v", i, id, ok)
		}
	}
}

// TestCommitAllocsIndependentOfExtension: a commit that interns a new
// term extends its generation's shared lookup in place, so its
// allocations do not grow with the terms earlier commits added.
func TestCommitAllocsIndependentOfExtension(t *testing.T) {
	allocsAfter := func(commits int) float64 {
		live := tinyLive(t)
		for c := 0; c < commits; c++ {
			batch := make([]rdf.Triple, 0, 500)
			for i := 0; i < 500; i++ {
				batch = append(batch, spo("s", "p", fmt.Sprintf("o%d-%d", c, i)))
			}
			live.Apply(batch)
		}
		i := 0
		return testing.AllocsPerRun(50, func() {
			i++
			live.Apply([]rdf.Triple{spo("s", "q", fmt.Sprintf("fresh%d", i))})
		})
	}
	one, twenty := allocsAfter(1), allocsAfter(20)
	if twenty > 1.5*one {
		t.Errorf("a term-adding commit allocates %.1f times after 20 term-adding commits, %.1f after 1", twenty, one)
	}
}

// TestPredCardinalityIncludesDelta pins how a snapshot's statistics
// overlay the delta on the base: predicate cardinalities add, a
// predicate only the delta holds takes its delta count as both distinct
// counts, the totals stay the base's, and the predicate count includes
// the delta-only predicate.
func TestPredCardinalityIncludesDelta(t *testing.T) {
	live := tinyLive(t)
	live.Apply([]rdf.Triple{spo("u", "p", "v"), spo("u", "q", "v"), spo("u", "q", "w")})
	sn := live.Snapshot()
	defer sn.Close()

	p, _ := sn.TermDict().Lookup(iri("p"))
	q, _ := sn.TermDict().Lookup(iri("q"))
	st := sn.Stats()
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"PredCardinality(p)", st.PredCardinality(p), 3},
		{"PredCardinality(q)", st.PredCardinality(q), 2},
		// p is in the base: its distinct counts are the base's.
		{"DistinctSubjects(p)", st.DistinctSubjects(p), 2},
		{"DistinctObjects(p)", st.DistinctObjects(p), 2},
		// q is delta-only: its delta count, though u is its one subject.
		{"DistinctSubjects(q)", st.DistinctSubjects(q), 2},
		{"DistinctObjects(q)", st.DistinctObjects(q), 2},
		// The base's a and b; the delta's u, v and w are not counted.
		{"TotalDistinctSubjects", st.TotalDistinctSubjects(), 2},
		{"TotalDistinctObjects", st.TotalDistinctObjects(), 2},
		{"DistinctPredicates", st.DistinctPredicates(), 2},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestSnapshotStatsOutliveCommits: a snapshot's statistics are its
// version's. A snapshot taken before a commit, and one taken before a
// merge, read the same values after the commit or merge lands, while
// a fresh snapshot reads the new ones.
func TestSnapshotStatsOutliveCommits(t *testing.T) {
	live := tinyLive(t)
	live.Apply([]rdf.Triple{spo("u", "q", "v")})
	preds := func() []store.ID {
		sn := live.Snapshot()
		defer sn.Close()
		var ids []store.ID
		for _, name := range []string{"p", "q", "r"} {
			id, _ := sn.TermDict().Lookup(iri(name))
			ids = append(ids, id) // NoID, whose statistics read 0, until r commits
		}
		return ids
	}
	values := func(sn *mvcc.Snapshot, ids []store.ID) []int {
		st := sn.Stats()
		out := []int{st.TotalDistinctSubjects(), st.TotalDistinctObjects(), st.DistinctPredicates()}
		for _, p := range ids {
			out = append(out, st.PredCardinality(p), st.DistinctSubjects(p), st.DistinctObjects(p))
		}
		return out
	}

	beforeApply := live.Snapshot()
	defer beforeApply.Close()
	wantApply := values(beforeApply, preds())
	live.Apply([]rdf.Triple{spo("u", "q", "w"), spo("x", "r", "y")})

	beforeMerge := live.Snapshot()
	defer beforeMerge.Close()
	ids := preds()
	wantMerge := values(beforeMerge, ids)
	live.MergeNow()
	live.Apply([]rdf.Triple{spo("z", "r", "y")})

	if got := values(beforeApply, ids); !slices.Equal(got, wantApply) {
		t.Errorf("snapshot before the commit: %v, want %v", got, wantApply)
	}
	if got := values(beforeMerge, ids); !slices.Equal(got, wantMerge) {
		t.Errorf("snapshot before the merge: %v, want %v", got, wantMerge)
	}
	now := live.Snapshot()
	defer now.Close()
	if got := values(now, ids); slices.Equal(got, wantMerge) {
		t.Errorf("snapshot after the merge and a commit still reads %v", got)
	}
}

func TestMergeCompactsAndPreservesIDs(t *testing.T) {
	live := tinyLive(t)
	live.Apply([]rdf.Triple{spo("c", "p", "d")})
	pre := live.Snapshot()
	defer pre.Close()
	d, ok := pre.TermDict().Lookup(iri("d"))
	if !ok {
		t.Fatal("d not interned")
	}

	live.MergeNow()
	post := live.Snapshot()
	defer post.Close()

	if pre.Generation() != 1 || post.Generation() != 2 {
		t.Fatalf("generations = %d, %d, want 1, 2", pre.Generation(), post.Generation())
	}
	if post.DeltaLen() != 0 {
		t.Fatalf("post-merge delta = %d rows, want 0", post.DeltaLen())
	}
	if pre.Len() != post.Len() {
		t.Fatalf("merge changed Len: %d != %d", pre.Len(), post.Len())
	}
	// Dictionary IDs are global and survive the merge un-renumbered.
	d2, ok := post.TermDict().Lookup(iri("d"))
	if !ok || d2 != d {
		t.Fatalf("ID of d changed across merge: %d -> %d (ok=%v)", d, d2, ok)
	}
	// The retired generation's snapshot still answers queries.
	if got := store.Count(pre, store.NoID, store.NoID, d); got != 1 {
		t.Errorf("retired snapshot Count(?,?,d) = %d, want 1", got)
	}

	st := live.Stats()
	if st.Generation != 2 || st.BaseTriples != 3 || st.DeltaTriples != 0 || st.Merges != 1 {
		t.Errorf("Stats = %+v, want gen 2, 3 base, 0 delta, 1 merge", st)
	}
	fp := live.Footprint()
	if fp.Generation != 2 || fp.BaseTriples != 3 || fp.DeltaTriples != 0 || fp.Triples != 3 {
		t.Errorf("Footprint = %+v, want gen 2 / 3+0", fp)
	}
}

func TestCommitDuringMergeCarriesOver(t *testing.T) {
	live := tinyLive(t)
	live.Apply([]rdf.Triple{spo("c", "p", "d")})
	live.MergeNow()
	// A batch committed after the merge captured its version lands in
	// the next generation's delta (here: committed after install, the
	// same bookkeeping path).
	live.Apply([]rdf.Triple{spo("e", "p", "f")})
	sn := live.Snapshot()
	defer sn.Close()
	if sn.Generation() != 2 || sn.DeltaLen() != 1 || sn.Len() != 4 {
		t.Fatalf("gen=%d delta=%d len=%d, want 2/1/4", sn.Generation(), sn.DeltaLen(), sn.Len())
	}
	e, _ := sn.TermDict().Lookup(iri("e"))
	if got := store.Count(sn, e, store.NoID, store.NoID); got != 1 {
		t.Errorf("Count(e,?,?) = %d, want 1", got)
	}
	live.MergeNow()
	sn2 := live.Snapshot()
	defer sn2.Close()
	if sn2.Generation() != 3 || sn2.Len() != 4 {
		t.Fatalf("after second merge: gen=%d len=%d, want 3/4", sn2.Generation(), sn2.Len())
	}
}

func TestAutoMergeTriggers(t *testing.T) {
	st := store.New()
	st.Add(spo("a", "p", "b"))
	live := mvcc.New(st, mvcc.MergePolicy{MaxDeltaTriples: 8})
	defer live.Close()

	for i := 0; i < 16; i++ {
		live.Apply([]rdf.Triple{spo(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))})
	}
	live.Close() // waits out any in-flight background merge
	if got := live.Stats(); got.Merges == 0 {
		t.Errorf("no background merge after 16 inserts over threshold 8: %+v", got)
	}
	sn := live.Snapshot()
	defer sn.Close()
	if sn.Len() != 17 {
		t.Errorf("Len = %d, want 17", sn.Len())
	}
}

// generated builds a seeded SP2Bench document, returning the loaded
// store, its raw bytes, and the generator stats.
func generated(t *testing.T, triples int64) (*store.Store, []byte, *gen.Stats) {
	t.Helper()
	var buf bytes.Buffer
	g, err := gen.New(gen.DefaultParams(triples), &buf)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	if _, err := s.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes(), stats
}

// updateBatches continues the generator timeline past the base document
// with gen.UpdateStream: one insert batch per year after endYear.
func updateBatches(t *testing.T, seed uint64, endYear, n int) [][]rdf.Triple {
	t.Helper()
	p := gen.DefaultParams(0)
	p.Seed = seed
	p.EndYear = endYear + n
	var bufs []*bytes.Buffer
	if _, err := gen.UpdateStream(p, discard{}, endYear, func(year int) io.Writer {
		b := &bytes.Buffer{}
		bufs = append(bufs, b)
		return b
	}); err != nil {
		t.Fatal(err)
	}
	batches := make([][]rdf.Triple, 0, len(bufs))
	for _, b := range bufs {
		ts, err := rdf.NewReader(b).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, ts)
	}
	return batches
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestMergedGenerationMatchesFromScratchLoad is the acceptance check:
// all 17 benchmark queries agree between (a) a post-merge generation
// built incrementally via Apply+MergeNow and (b) a from-scratch load of
// the same triples — and (c) the pre-merge snapshot serving base+delta.
func TestMergedGenerationMatchesFromScratchLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("generator-backed; skipped in -short")
	}
	base, doc, stats := generated(t, 10_000)
	batches := updateBatches(t, 42, stats.EndYear, 3)

	live := mvcc.New(base, mvcc.MergePolicy{Disabled: true})
	defer live.Close()
	for _, b := range batches {
		live.Apply(b)
	}
	pre := live.Snapshot()
	defer pre.Close()
	live.MergeNow()
	post := live.Snapshot()
	defer post.Close()
	if post.Generation() != 2 || post.DeltaLen() != 0 {
		t.Fatalf("post-merge gen=%d delta=%d, want 2/0", post.Generation(), post.DeltaLen())
	}

	fresh := store.New()
	if _, err := fresh.Ingest(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for _, tr := range b {
			fresh.Add(tr)
		}
	}
	fresh.Freeze()
	if fresh.Len() != post.Len() {
		t.Fatalf("triple counts differ: from-scratch %d, merged %d", fresh.Len(), post.Len())
	}

	ctx := context.Background()
	engFresh := engine.New(fresh, engine.Native())
	engPre := engine.NewReader(pre, engine.Native())
	engPost := engine.NewReader(post, engine.Native())
	for _, q := range queries.All() {
		pq := q.Parse()
		want, err := engFresh.Count(ctx, pq)
		if err != nil {
			t.Fatalf("%s fresh: %v", q.ID, err)
		}
		gotPre, err := engPre.Count(ctx, pq)
		if err != nil {
			t.Fatalf("%s pre-merge: %v", q.ID, err)
		}
		gotPost, err := engPost.Count(ctx, pq)
		if err != nil {
			t.Fatalf("%s post-merge: %v", q.ID, err)
		}
		if gotPre != want || gotPost != want {
			t.Errorf("%s: pre=%d post=%d from-scratch=%d", q.ID, gotPre, gotPost, want)
		}
	}
}

// TestConcurrentReadersAndWriter is the race-detector stress: reader
// goroutines sweep the full query catalog over per-sweep snapshots while
// a writer ingests update batches and the background merger compacts.
// Each reader asserts per-snapshot stability — two counts of the same
// query on one snapshot must agree even as commits land — i.e. no torn
// batches. Run with -race.
func TestConcurrentReadersAndWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("generator-backed; skipped in -short")
	}
	base, _, stats := generated(t, 5_000)
	batches := updateBatches(t, 7, stats.EndYear, 6)

	live := mvcc.New(base, mvcc.MergePolicy{MaxDeltaTriples: 256})
	defer live.Close()

	parsed := queries.All()
	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := live.Snapshot()
				eng := engine.NewReader(sn, engine.Native())
				lenBefore := sn.Len()
				for _, q := range parsed {
					pq := q.Parse()
					a, err := eng.Count(ctx, pq)
					if err != nil {
						errs <- fmt.Errorf("%s: %v", q.ID, err)
						sn.Close()
						return
					}
					b, err := eng.Count(ctx, pq)
					if err != nil {
						errs <- fmt.Errorf("%s (recount): %v", q.ID, err)
						sn.Close()
						return
					}
					if a != b {
						errs <- fmt.Errorf("%s unstable within one snapshot: %d then %d", q.ID, a, b)
						sn.Close()
						return
					}
				}
				if sn.Len() != lenBefore {
					errs <- fmt.Errorf("snapshot Len moved: %d -> %d", lenBefore, sn.Len())
					sn.Close()
					return
				}
				sn.Close()
			}
		}()
	}

	// The writer: every batch committed atomically, merger triggering
	// in the background throughout.
	inserted := 0
	for i := 0; i < 24; i++ {
		inserted += live.Apply(batches[i%len(batches)])
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	live.Close()
	sn := live.Snapshot()
	defer sn.Close()
	if want := base.Len() + inserted; sn.Len() != want {
		t.Errorf("final Len = %d, want %d", sn.Len(), want)
	}
	if s := live.Stats(); s.ActiveSnapshots != 1 {
		t.Errorf("ActiveSnapshots = %d, want 1 (ours)", s.ActiveSnapshots)
	}
}
