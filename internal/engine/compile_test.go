package engine_test

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// countingReader counts the index ranges opened through it and the rows
// those ranges span, leaving out the planner's cardinality probes: a
// RangeIn call with store.Count among its callers. Safe for concurrent
// use, so it can also watch partitioned executions.
type countingReader struct {
	store.Reader
	ranges, rows atomic.Int64
}

func (r *countingReader) RangeIn(ord store.Order, s, p, o store.ID) store.IndexRange {
	rng := r.Reader.RangeIn(ord, s, p, o)
	if !calledFromCount() {
		r.ranges.Add(1)
		r.rows.Add(int64(rng.Len()))
	}
	return rng
}

// calledFromCount reports whether store.Count is among the callers of
// the RangeIn that calls it.
func calledFromCount() bool {
	var pcs [8]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(3, pcs[:])])
	for {
		f, more := frames.Next()
		if f.Function == "sp2bench/internal/store.Count" {
			return true
		}
		if !more {
			return false
		}
	}
}

// explainCounting compiles query id over src through a countingReader.
func explainCounting(t *testing.T, src store.Reader, opts engine.Options, id string) (string, *countingReader) {
	t.Helper()
	q, _ := queries.ByID(id)
	cr := &countingReader{Reader: src}
	plan, err := engine.NewReader(cr, opts).Explain(q.Parse())
	if err != nil {
		t.Fatalf("%s/%s: %v", opts.Name, id, err)
	}
	return plan, cr
}

// planRanges counts the index ranges a batch plan holds: one per scan,
// merge and hash stage on its "vec operators:" lines and on the lines
// of its hashed blocks' build chains.
func planRanges(plan string) int {
	n := 0
	for _, line := range strings.Split(plan, "\n") {
		if strings.HasPrefix(line, "vec operators:") || strings.HasPrefix(line, "vec hashseg build:") {
			n += strings.Count(line, " scan[") + strings.Count(line, " merge[") + strings.Count(line, " hash[")
		}
	}
	return n
}

// namedReader is one triple source a test sweeps.
type namedReader struct {
	name string
	r    store.Reader
}

// storeAndSnapshot returns a generated store and an MVCC snapshot of it
// carrying a live delta (a new article and its author), the two sources
// the planner must treat alike.
func storeAndSnapshot(t *testing.T, triples int64) []namedReader {
	t.Helper()
	s, _ := generatedStore(t, triples)
	live := mvcc.New(s, mvcc.MergePolicy{Disabled: true})
	t.Cleanup(live.Close)
	doc, person := rdf.IRI("urn:new-article"), rdf.IRI("urn:new-person")
	live.Apply([]rdf.Triple{
		rdf.NewTriple(doc, rdf.IRI(rdf.RDFType), rdf.IRI(rdf.BenchArticle)),
		rdf.NewTriple(doc, rdf.IRI(rdf.DCCreator), person),
		rdf.NewTriple(doc, rdf.IRI(rdf.DCTermsIssued), rdf.Integer(1950)),
		rdf.NewTriple(person, rdf.IRI(rdf.RDFType), rdf.IRI(rdf.FOAFPerson)),
		rdf.NewTriple(person, rdf.IRI(rdf.FOAFName), rdf.String("New Person")),
	})
	snap := live.Snapshot()
	t.Cleanup(snap.Close)
	if snap.DeltaLen() == 0 {
		t.Fatal("snapshot has no delta")
	}
	return []namedReader{{"store", s}, {"snapshot", snap}}
}

// TestCompilePlansOnce: compiling a query opens each index range of its
// plan exactly once — the ranges on its batch chains' EXPLAIN lines,
// whether the batch path covers the query (no tuple tree is planned
// beside it) or it falls back to the tuple operators (their outer-free
// BGPs are the same chains). Both hold over a plain store and over an MVCC
// snapshot with a live delta, where every range is located twice, in
// the base and in the delta.
func TestCompilePlansOnce(t *testing.T) {
	for _, src := range storeAndSnapshot(t, 10_000) {
		// Q5a's disconnected block, Q8's flattened join of groups, Q10's
		// and Q11's unit BGPs and Q12a's ASK included.
		for _, id := range []string{"q1", "q3b", "q5a", "q5b", "q6", "q8", "q10", "q11", "q12a"} {
			plan, cr := explainCounting(t, src.r, engine.Native(), id)
			if want := planRanges(plan); want == 0 || cr.ranges.Load() != int64(want) {
				t.Errorf("%s/%s: compile opened %d ranges for a plan holding %d:\n%s",
					src.name, id, cr.ranges.Load(), want, plan)
			}
			if strings.Contains(plan, "bgp operators:") || strings.Contains(plan, "tuple fallback") {
				t.Errorf("%s/%s: a batch plan also planned tuple operators:\n%s", src.name, id, plan)
			}
		}
		// Q7 falls back to the tuple operators, whose outer-free BGPs
		// compile to the same batch chains, each range opened once.
		plan, cr := explainCounting(t, src.r, engine.Native(), "q7")
		if want := planRanges(plan); want == 0 || cr.ranges.Load() != int64(want) {
			t.Errorf("%s/q7: compile opened %d ranges for a plan holding %d:\n%s",
				src.name, cr.ranges.Load(), want, plan)
		}
		if strings.Contains(plan, "bgp operators:") {
			t.Errorf("%s/q7: a plan shows a tuple BGP operator line:\n%s", src.name, plan)
		}
	}
}

// TestTupleFallbackSet pins which paper queries the native engine runs
// on the tuple operators: exactly Q7 says "vec: tuple fallback", and
// every other query runs on batch operators. Work that
// moves a query onto the batch operators shrinks the set here on
// purpose.
func TestTupleFallbackSet(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	fallback := map[string]bool{"q7": true}
	for _, q := range queries.All() {
		plan, err := engine.New(s, engine.Native()).Explain(q.Parse())
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if got := strings.Contains(plan, "vec: tuple fallback"); got != fallback[q.ID] {
			t.Errorf("native/%s: tuple fallback = %v, want %v:\n%s", q.ID, got, fallback[q.ID], plan)
		}
		if !fallback[q.ID] && !strings.Contains(plan, "vec operators:") {
			t.Errorf("native/%s: no batch operators:\n%s", q.ID, plan)
		}
	}
}
