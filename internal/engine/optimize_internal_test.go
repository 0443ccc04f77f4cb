package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// optStore builds a small frozen store for optimizer unit tests. The
// "link" predicate is a full 3x4 subject-object cross product (12
// triples, 3 distinct subjects, 4 distinct objects), chosen so that one
// division and two divisions of its cardinality land on different values
// even after the >=1 clamp.
func optStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	iri := func(v string) rdf.Term { return rdf.IRI("http://x/" + v) }
	for _, subj := range []string{"a", "b", "c"} {
		for _, obj := range []string{"w", "x", "y", "z"} {
			s.Add(rdf.NewTriple(iri(subj), iri("link"), iri(obj)))
		}
	}
	// "fan": 8 triples, 2 distinct subjects, 8 distinct objects.
	for i := 0; i < 8; i++ {
		subj := "s0"
		if i >= 4 {
			subj = "s1"
		}
		s.Add(rdf.NewTriple(iri(subj), iri("fan"), iri("o"+string(rune('a'+i)))))
	}
	s.Add(rdf.NewTriple(iri("s0"), iri("type"), iri("Thing")))
	s.Freeze()
	return s
}

func compiledFor(t *testing.T, s *store.Store) *compiled {
	t.Helper()
	return &compiled{
		eng:    New(s, Native()),
		slots:  map[string]int{},
		cancel: &canceller{ctx: context.Background()},
	}
}

func pat(s, p, o string) sparql.TriplePattern {
	term := func(v string) sparql.PatternTerm {
		if v != "" && v[0] == '?' {
			return sparql.Variable(v[1:])
		}
		return sparql.Constant(rdf.IRI("http://x/" + v))
	}
	return sparql.TriplePattern{S: term(s), P: term(p), O: term(o)}
}

// TestConstantPatternOrderedFirst is the regression test for the
// disconnected() bug: a fully-constant triple pattern has no variables,
// so the old code treated it as a cross product and penalized it by 1e9,
// ordering the most selective pattern possible *last*.
func TestConstantPatternOrderedFirst(t *testing.T) {
	s := optStore(t)
	c := compiledFor(t, s)

	constant := pat("s0", "type", "Thing")
	patterns := []sparql.TriplePattern{
		pat("?x", "fan", "?y"),
		constant,
		pat("?y", "link", "?z"),
	}
	// outer vars make the bound set non-empty from the first pick — the
	// configuration under which the old penalty misfired.
	ordered := c.reorder(patterns, []string{"x"})
	if len(ordered) != 3 {
		t.Fatalf("reorder dropped patterns: %v", ordered)
	}
	if ordered[0].String() != constant.String() {
		t.Fatalf("constant pattern ordered at %s, want first (order: %v)",
			ordered[0], ordered)
	}

	// And a constant pattern must never be classified as disconnected.
	if disconnected(constant, map[string]bool{"x": true}) {
		t.Fatal("fully-constant pattern reported as disconnected")
	}
}

// TestEstimateSameVariableDividesOnce is the regression test for the
// estimate() divisor bug: in ?x :link ?x both the subject and the object
// position are the *same* runtime-bound variable — one binding event —
// but the old code applied both divisions, undercounting the cost.
func TestEstimateSameVariableDividesOnce(t *testing.T) {
	s := optStore(t)
	c := compiledFor(t, s)

	link := mustID(t, s, "link")
	st := s.Stats()
	base := float64(st.PredCardinality(link))
	ds := float64(st.DistinctSubjects(link))
	do := float64(st.DistinctObjects(link))
	if base != 12 || ds != 3 || do != 4 {
		t.Fatalf("unexpected link statistics: base=%v ds=%v do=%v", base, ds, do)
	}

	got := c.estimate(pat("?x", "link", "?x"), map[string]bool{"x": true})
	want := math.Max(1, base/math.Max(ds, do)) // 12/4 = 3
	if got != want {
		t.Fatalf("estimate(?x :link ?x | x bound) = %v, want %v (one division, not %v)",
			got, want, math.Max(1, base/(ds*do)))
	}

	// Distinct variables still multiply: ?x :link ?y divides by both.
	both := c.estimate(pat("?x", "link", "?y"), map[string]bool{"x": true, "y": true})
	wantBoth := math.Max(1, base/(ds*do)) // 12/12 = 1
	if both != wantBoth {
		t.Fatalf("estimate(?x :link ?y | both bound) = %v, want %v", both, wantBoth)
	}
}

func mustID(t *testing.T, s *store.Store, v string) store.ID {
	t.Helper()
	id, ok := s.Dict().Lookup(rdf.IRI("http://x/" + v))
	if !ok {
		t.Fatalf("term %s not in dictionary", v)
	}
	return id
}

// TestHashSegChecksUpstreamSlot drives the hashseg merge on the shape
// it guards against, which the reordering planner does not produce: in
// query order, the block {?b q ?y, ?b r ?x} starts disconnected from
// ?a p ?x and then repeats its ?x. The block is built without the
// upstream binding, so merging a block row must check ?x against the
// streamed row, not overwrite it. (Reordered, the greedy order places
// every pattern connected to the bound variables before any block, and
// a block swap needs blocks with no variable in common, so a block can
// repeat an upstream variable only through a pin, which
// TestHashSegmentRepeatsUpstreamVariable covers.) The steps are
// prepared one pattern at a time, which keeps query order, and are
// planned as one chain.
func TestHashSegChecksUpstreamSlot(t *testing.T) {
	s := store.New()
	iri := func(v string, i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://x/%s%d", v, i)) }
	for i := 0; i < 6; i++ {
		s.Add(rdf.NewTriple(iri("a", i), rdf.IRI("http://x/p"), iri("x", i%3)))
		s.Add(rdf.NewTriple(iri("b", i), rdf.IRI("http://x/q"), iri("y", i)))
		s.Add(rdf.NewTriple(iri("b", i), rdf.IRI("http://x/r"), iri("x", i%2)))
	}
	s.Freeze()
	patterns := []sparql.TriplePattern{pat("?a", "p", "?x"), pat("?b", "q", "?y"), pat("?b", "r", "?x")}

	c := compiledFor(t, s)
	var steps []patternStep
	for i := range patterns {
		b, _ := c.prepareBGP(patterns[i:i+1], nil, nil)
		steps = append(steps, b.steps...)
	}
	ch := c.planVecChain(steps, patterns, false, nil, nil)
	if got := ch.desc.String(); !strings.Contains(got, "hashseg[cross steps=2]") {
		t.Fatalf("expected the two-pattern block to be hashed: %s", got)
	}
	op := ch.link(c.cancel)
	op.open()
	var rows []string
	for {
		batch, err := op.next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		for r := 0; r < batch.Len(); r++ {
			row := batch.CopyRow(r, nil)
			rows = append(rows, fmt.Sprint(row[c.slots["a"]], row[c.slots["b"]], row[c.slots["x"]]))
		}
	}
	want := map[string]bool{}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i%3 == j%2 {
				want[fmt.Sprint(mustID(t, s, fmt.Sprint("a", i)), mustID(t, s, fmt.Sprint("b", j)), mustID(t, s, fmt.Sprint("x", j%2)))] = true
			}
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d (a_i, b_j with i%%3 = j%%2)", len(rows), len(want))
	}
	for _, row := range rows {
		if !want[row] {
			t.Fatalf("unexpected row (a b x) = %s", row)
		}
	}
}

// TestIdentityComparisons: an `=`/`!=` conjunct over a variable some
// pattern binds at its subject or predicate position compares IDs alone
// (fastCmp.ids), while one between two object-only variables, which may
// hold value-equal literals, and an ordering comparison keep the value
// comparison.
func TestIdentityComparisons(t *testing.T) {
	s := optStore(t)
	patterns := []sparql.TriplePattern{pat("?a", "link", "?x"), pat("?b", "link", "?y")}
	conj := func(op sparql.BinaryOp, l, r string) sparql.Expr {
		return &sparql.Binary{Op: op, Left: &sparql.VarExpr{Name: l}, Right: &sparql.VarExpr{Name: r}}
	}
	conjuncts := []sparql.Expr{
		conj(sparql.OpNeq, "a", "b"),
		conj(sparql.OpEq, "x", "a"),
		conj(sparql.OpEq, "x", "y"),
		conj(sparql.OpLt, "a", "b"),
	}
	want := map[string]bool{"a != b": true, "x = a": true, "x = y": false, "a < b": false}
	c := compiledFor(t, s)
	b, _ := c.prepareBGP(patterns, conjuncts, nil)
	n := 0
	for _, st := range b.steps {
		for _, f := range st.filt.fast {
			n++
			key := fmt.Sprintf("%s %s %s", c.names[f.l], f.op, c.names[f.r])
			if f.ids != want[key] {
				t.Errorf("%s: ids = %v, want %v", key, f.ids, want[key])
			}
		}
	}
	if n != len(conjuncts) {
		t.Errorf("%d fast comparisons, want %d", n, len(conjuncts))
	}
}
