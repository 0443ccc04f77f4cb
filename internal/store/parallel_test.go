package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"unsafe"

	"sp2bench/internal/rdf"
	"sp2bench/internal/testutil"
)

// syntheticDoc builds an N-Triples document with n statements (some
// duplicated), interleaved comments and blank lines.
func syntheticDoc(n int) string {
	var b strings.Builder
	b.WriteString("# synthetic test document\n\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<http://x/s%d> <http://x/p%d> \"v%d\"^^<%s> .\n", i%97, i%7, i, rdf.XSDString)
		if i%10 == 0 {
			fmt.Fprintf(&b, "<http://x/s%d> <http://x/p%d> \"v%d\"^^<%s> .\n", i%97, i%7, i, rdf.XSDString)
		}
		if i%50 == 0 {
			b.WriteString("\n# interleaved comment\n")
		}
	}
	return b.String()
}

// tripleSet renders a store's triples back to term-level N-Triples
// strings, erasing dictionary ID assignment.
func tripleSet(t *testing.T, s *Store) map[string]bool {
	t.Helper()
	d := s.Dict()
	set := make(map[string]bool, s.Len())
	for _, tr := range s.Index(OrderSPO) {
		key := rdf.NewTriple(d.Term(tr[0]), d.Term(tr[1]), d.Term(tr[2])).String()
		if set[key] {
			t.Fatalf("duplicate triple after Freeze: %s", key)
		}
		set[key] = true
	}
	return set
}

// TestParallelLoadMatchesSequentialSemantics pins that the sharded
// loader produces the same graph, statistics and index answers as a
// store built by sequential Add calls, on a document large enough to
// span many chunks (the loader is exercised with -race in CI).
func TestParallelLoadMatchesSequentialSemantics(t *testing.T) {
	doc := syntheticDoc(5000)

	par := New()
	n, err := par.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}

	seq := New()
	nr := rdf.NewReader(strings.NewReader(doc))
	nSeq := 0
	for {
		tr, err := nr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seq.Add(tr)
		nSeq++
	}
	seq.Freeze()

	if n != nSeq {
		t.Fatalf("parallel load parsed %d statements, sequential %d", n, nSeq)
	}
	if par.Len() != seq.Len() {
		t.Fatalf("parallel store has %d triples, sequential %d", par.Len(), seq.Len())
	}
	want := tripleSet(t, seq)
	for key := range tripleSet(t, par) {
		if !want[key] {
			t.Fatalf("parallel store has extra triple %s", key)
		}
		delete(want, key)
	}
	if len(want) != 0 {
		t.Fatalf("parallel store is missing %d triples", len(want))
	}

	// Statistics agree predicate by predicate (compared term-wise).
	ps, ss := par.Stats(), seq.Stats()
	if ps.DistinctPredicates() != ss.DistinctPredicates() {
		t.Fatalf("DistinctPredicates: parallel %d sequential %d", ps.DistinctPredicates(), ss.DistinctPredicates())
	}
	if ps.TotalDistinctSubjects() != ss.TotalDistinctSubjects() ||
		ps.TotalDistinctObjects() != ss.TotalDistinctObjects() {
		t.Fatalf("global distinct counts diverge")
	}
	for i := 0; i < 7; i++ {
		term := rdf.IRI(fmt.Sprintf("http://x/p%d", i))
		pp, ok1 := par.Dict().Lookup(term)
		sp, ok2 := seq.Dict().Lookup(term)
		if !ok1 || !ok2 {
			t.Fatalf("predicate %s missing from a dictionary", term)
		}
		if ps.PredCardinality(pp) != ss.PredCardinality(sp) ||
			ps.DistinctSubjects(pp) != ss.DistinctSubjects(sp) ||
			ps.DistinctObjects(pp) != ss.DistinctObjects(sp) {
			t.Errorf("per-predicate statistics diverge for %s", term)
		}
		// Index answers agree too.
		if Count(par, NoID, pp, NoID) != Count(seq, NoID, sp, NoID) {
			t.Errorf("Count(?,%s,?) diverges", term)
		}
	}
}

// TestParallelLoadErrorReporting pins that parse errors surface with a
// usable line number even when the bad line is deep inside a chunk.
func TestParallelLoadErrorReporting(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "<http://x/s%d> <http://x/p> <http://x/o> .\n", i)
	}
	b.WriteString("this is not a triple\n")
	s := New()
	_, err := s.Load(strings.NewReader(b.String()))
	if err == nil {
		t.Fatal("expected parse error")
	}
	var pe *rdf.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *rdf.ParseError", err)
	}
	if pe.Line != 1001 {
		t.Errorf("error line = %d, want 1001", pe.Line)
	}
}

// TestParallelLoadOversizedLine pins the statement-size bound: a line
// exceeding the limit fails cleanly instead of buffering forever.
func TestParallelLoadOversizedLine(t *testing.T) {
	huge := "<http://x/s> <http://x/p> \"" + strings.Repeat("a", maxLineBytes+10) + "\" ."
	s := New()
	if _, err := s.Load(strings.NewReader(huge)); err == nil {
		t.Fatal("expected an error for an oversized statement")
	}
}

// TestParallelLoadNoTrailingNewline covers the final-fragment path.
func TestParallelLoadNoTrailingNewline(t *testing.T) {
	s := New()
	n, err := s.Load(strings.NewReader("<a> <p> <b> .\n<b> <p> <c> ."))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || s.Len() != 2 {
		t.Fatalf("parsed %d statements, stored %d; want 2/2", n, s.Len())
	}
}

// TestIngestThenFreezeAfterAdd mixes the direct Add path with a
// parallel Ingest over the same dictionary, the shape Update relies on.
func TestIngestThenFreezeAfterAdd(t *testing.T) {
	s := New()
	s.Add(rdf.NewTriple(rdf.IRI("http://x/a"), rdf.IRI("http://x/p"), rdf.IRI("http://x/b")))
	n, err := s.Ingest(strings.NewReader(
		"<http://x/a> <http://x/p> <http://x/b> .\n<http://x/a> <http://x/p> <http://x/c> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Ingest parsed %d, want 2", n)
	}
	s.Freeze()
	if s.Len() != 2 { // a-p-b deduplicated across the two paths
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	a, _ := s.Dict().Lookup(rdf.IRI("http://x/a"))
	if got := Count(s, a, NoID, NoID); got != 2 {
		t.Errorf("Count(a,?,?) = %d, want 2", got)
	}
}

// TestParallelLoadManyChunks forces multiple chunks through a reader
// that returns tiny blocks, covering the carry/cut path.
func TestParallelLoadManyChunks(t *testing.T) {
	doc := syntheticDoc(2000)
	s := New()
	n, err := s.Load(iotest{r: strings.NewReader(doc), max: 113})
	if err != nil {
		t.Fatal(err)
	}
	ref := New()
	nRef, err := ref.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if n != nRef || s.Len() != ref.Len() {
		t.Fatalf("chunked load diverges: n=%d/%d len=%d/%d", n, nRef, s.Len(), ref.Len())
	}
}

// iotest dribbles reads in small blocks to exercise chunk boundaries.
type iotest struct {
	r   io.Reader
	max int
}

func (d iotest) Read(p []byte) (int, error) {
	if len(p) > d.max {
		p = p[:d.max]
	}
	return d.r.Read(p)
}

// TestIngestCopiesNewTerms: the N-Triples parser returns substrings of
// the line it parses, and Ingest's workers intern them as they are. A
// term the dictionary stores must not point into that line, or every
// term would pin its whole line for the store's life. Literals of one
// datatype share one copy of it.
func TestIngestCopiesNewTerms(t *testing.T) {
	long := strings.Repeat("x", 4096)
	lines := []string{
		fmt.Sprintf(`<urn:s%s> <urn:p%s> "%s"@en .`, long, long, long),
		fmt.Sprintf(`<urn:s> <urn:q> "1%s"^^<%s> .`, strings.Repeat("0", 4096), rdf.XSDInteger),
		fmt.Sprintf(`<urn:s> <urn:r> "2"^^<%s> .`, rdf.XSDInteger),
	}
	d, worker := NewDict(), NewDict()
	var batch []rdf.Triple
	for i, line := range lines {
		tr, err := rdf.ParseTriple(line, i+1)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tr)
		worker.Intern(tr.S)
		worker.Intern(tr.P)
		worker.Intern(tr.O)
	}
	d.absorb([]*Dict{worker})
	stored := func(term rdf.Term) rdf.Term {
		id, ok := d.Lookup(term)
		if !ok {
			t.Fatalf("%s not interned", term)
		}
		return d.Term(id)
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

func BenchmarkParallelIngest(b *testing.B) {
	doc := []byte(syntheticDoc(20000))
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		s := New()
		if _, err := s.Ingest(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}
