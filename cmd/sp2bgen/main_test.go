package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"sp2bench/internal/dist"
	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/queries"
	"sp2bench/internal/snapshot"
)

// goldenSHA256 pins the byte-exact output of `sp2bgen -y 1945 -seed 1`.
// The generator promises platform-independent determinism; if this hash
// ever changes, either the distribution model or the emitter changed and
// every previously generated benchmark document is invalidated — bump
// the hash only as a conscious, documented decision.
const goldenSHA256 = "b48092c7145ff61883b2df741e15bdb1abf951bd67d44d5ada331d87734e2ee3"

// goldenSnapshotSHA256 pins the byte-exact output of `sp2bgen -t 10000
// -o doc.sp2b`. Freeze numbers the dictionary in Compare order, so the
// snapshot follows from the document alone, not from how its load was
// scheduled. The hash moves with the generator's output (goldenSHA256)
// and with the snapshot format.
const goldenSnapshotSHA256 = "53846ea5288e897db5a3b28f726db10b3b073616e7f0dba000c01b8e0082872b"

func generate(t *testing.T, p gen.Params) ([]byte, *gen.Stats) {
	t.Helper()
	var buf bytes.Buffer
	stats, err := emit(&buf, p, false)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

func TestGoldenOutput(t *testing.T) {
	p := gen.Params{Seed: 1, StartYear: 1936, EndYear: 1945, TargetedCitationFraction: 0.5}
	doc1, stats := generate(t, p)
	doc2, _ := generate(t, p)
	if !bytes.Equal(doc1, doc2) {
		t.Fatal("two runs with the same seed must be byte-identical")
	}
	sum := sha256.Sum256(doc1)
	if got := hex.EncodeToString(sum[:]); got != goldenSHA256 {
		t.Errorf("document hash drifted: got %s, want %s\n"+
			"(the generator's output changed; regenerate the golden hash only deliberately)", got, goldenSHA256)
	}
	if stats.EndYear != 1945 || stats.Triples == 0 {
		t.Fatalf("unexpected stats: %+v", stats)
	}
}

func TestGoldenSnapshot(t *testing.T) {
	var snap bytes.Buffer
	if _, err := emit(&snap, gen.DefaultParams(10_000), true); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenSnapshotSHA256 {
		t.Errorf("10k snapshot hash drifted: got %s (%d bytes), want %s", got, snap.Len(), goldenSnapshotSHA256)
	}
}

// TestCountsMatchGrowthFunctions checks that a year-limited document
// realizes exactly the class counts the dist growth curves prescribe,
// including the generator's two consistency fix-ups (articles force a
// journal, inproceedings force a proceedings).
func TestCountsMatchGrowthFunctions(t *testing.T) {
	p := gen.Params{Seed: 1, StartYear: 1936, EndYear: 1955, TargetedCitationFraction: 0.5}
	_, stats := generate(t, p)
	round := func(x float64) int {
		if x < 0 {
			return 0
		}
		return int(math.Floor(x + 0.5))
	}
	for _, yc := range stats.PerYear {
		checks := []struct {
			class dist.Class
			curve dist.Logistic
		}{
			{dist.ClassArticle, dist.Article},
			{dist.ClassInproceedings, dist.Inproceedings},
			{dist.ClassBook, dist.Book},
			{dist.ClassIncollection, dist.Incollection},
		}
		for _, ch := range checks {
			if want := round(ch.curve.At(yc.Year)); yc.Classes[ch.class] != want {
				t.Errorf("%d %v = %d, curve says %d", yc.Year, ch.class, yc.Classes[ch.class], want)
			}
		}
		wantProc := round(dist.Proceedings.At(yc.Year))
		if yc.Classes[dist.ClassInproceedings] > 0 && wantProc == 0 {
			wantProc = 1 // inproceedings force a proceedings container
		}
		if yc.Classes[dist.ClassProceedings] != wantProc {
			t.Errorf("%d proceedings = %d, want %d", yc.Year, yc.Classes[dist.ClassProceedings], wantProc)
		}
		wantJournals := round(dist.Journal.At(yc.Year))
		if yc.Classes[dist.ClassArticle] > 0 && wantJournals == 0 {
			wantJournals = 1 // articles force a journal
		}
		if yc.Journals != wantJournals {
			t.Errorf("%d journals = %d, want %d", yc.Year, yc.Journals, wantJournals)
		}
	}
}

// TestSnapshotFormatMatchesNTriples: the -format snapshot output of a
// run reloads, through the same sniffing loader sp2bquery uses, to the
// store its N-Triples output loads to: the same triple count and the
// same Q1 answer.
func TestSnapshotFormatMatchesNTriples(t *testing.T) {
	p := gen.DefaultParams(5_000)
	var nt, snap bytes.Buffer
	ntStats, err := emit(&nt, p, false)
	if err != nil {
		t.Fatal(err)
	}
	snapStats, err := emit(&snap, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if ntStats.Triples != snapStats.Triples {
		t.Fatalf("generator stats differ: %d triples as N-Triples, %d as snapshot", ntStats.Triples, snapStats.Triples)
	}
	q1, _ := queries.ByID("q1")
	load := func(doc *bytes.Buffer, wantSnap bool) (int, string) {
		t.Helper()
		st, isSnap, _, err := snapshot.OpenStore(doc)
		if err != nil {
			t.Fatal(err)
		}
		if isSnap != wantSnap {
			t.Fatalf("OpenStore detected snapshot=%v, want %v", isSnap, wantSnap)
		}
		res, err := engine.New(st, engine.Native()).Query(context.Background(), q1.Parse())
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("q1 = %d rows, want 1", res.Len())
		}
		return st.Len(), res.Rows[0][0].Value
	}
	ntLen, ntYear := load(&nt, false)
	snapLen, snapYear := load(&snap, true)
	if ntLen != snapLen || ntYear != snapYear {
		t.Errorf("snapshot reloads to %d triples, q1 = %s; N-Triples to %d, q1 = %s", snapLen, snapYear, ntLen, ntYear)
	}
}
