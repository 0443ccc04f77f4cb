package store

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"sp2bench/internal/rdf"
)

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	a := d.Intern(rdf.IRI("http://x/a"))
	b := d.Intern(rdf.IRI("http://x/b"))
	if a == b {
		t.Fatal("distinct terms got the same ID")
	}
	if a2 := d.Intern(rdf.IRI("http://x/a")); a2 != a {
		t.Fatal("re-interning changed the ID")
	}
	if got, ok := d.Lookup(rdf.IRI("http://x/b")); !ok || got != b {
		t.Fatal("lookup of interned term failed")
	}
	if _, ok := d.Lookup(rdf.IRI("http://x/missing")); ok {
		t.Fatal("lookup of unseen term succeeded")
	}
	if d.Term(a) != rdf.IRI("http://x/a") {
		t.Fatal("Term() did not invert Intern()")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestDictDistinguishesKinds(t *testing.T) {
	d := NewDict()
	ids := map[ID]bool{}
	for _, term := range []rdf.Term{
		rdf.IRI("x"), rdf.Blank("x"), rdf.Literal("x"),
		rdf.String("x"), rdf.TypedLiteral("x", rdf.XSDInteger),
	} {
		ids[d.Intern(term)] = true
	}
	if len(ids) != 5 {
		t.Fatalf("terms differing only in kind/datatype must get distinct IDs, got %d", len(ids))
	}
}

func TestDictPanicsOnBadID(t *testing.T) {
	d := NewDict()
	d.Intern(rdf.IRI("a"))
	for _, id := range []ID{NoID, 2, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Term(%d) should panic", id)
				}
			}()
			d.Term(id)
		}()
	}
}

// TestDictBijectionProperty: Intern and Term are mutually inverse over
// arbitrary term sets.
func TestDictBijectionProperty(t *testing.T) {
	f := func(values []string) bool {
		d := NewDict()
		for _, v := range values {
			term := rdf.Literal(v)
			id := d.Intern(term)
			if d.Term(id) != term {
				return false
			}
			if id2, ok := d.Lookup(term); !ok || id2 != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildStore(triples ...[3]string) *Store {
	s := New()
	for _, t := range triples {
		s.Add(rdf.NewTriple(rdf.IRI(t[0]), rdf.IRI(t[1]), rdf.IRI(t[2])))
	}
	s.Freeze()
	return s
}

// match returns the triples (in SPO component order) matching the
// pattern, where NoID components are wildcards.
func match(r Reader, sub, pred, obj ID) []EncTriple {
	var out []EncTriple
	for it := Range(r, sub, pred, obj).Iterator(); ; {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

func TestStoreDeduplicates(t *testing.T) {
	s := buildStore(
		[3]string{"a", "p", "b"},
		[3]string{"a", "p", "b"},
		[3]string{"a", "p", "c"},
	)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (RDF graphs are sets)", s.Len())
	}
}

func TestStoreFreezeIdempotent(t *testing.T) {
	s := buildStore([3]string{"a", "p", "b"})
	s.Freeze()
	s.Freeze()
	if s.Len() != 1 || !s.Frozen() {
		t.Fatal("repeated Freeze changed the store")
	}
}

func TestStoreAddAfterFreezePanics(t *testing.T) {
	s := buildStore([3]string{"a", "p", "b"})
	defer func() {
		if recover() == nil {
			t.Error("Add after Freeze should panic")
		}
	}()
	s.Add(rdf.NewTriple(rdf.IRI("x"), rdf.IRI("y"), rdf.IRI("z")))
}

func TestMatchAllPatternShapes(t *testing.T) {
	s := buildStore(
		[3]string{"s1", "p1", "o1"},
		[3]string{"s1", "p1", "o2"},
		[3]string{"s1", "p2", "o1"},
		[3]string{"s2", "p1", "o1"},
		[3]string{"s2", "p2", "o2"},
	)
	id := func(v string) ID {
		i, ok := s.Dict().Lookup(rdf.IRI(v))
		if !ok {
			t.Fatalf("term %s not interned", v)
		}
		return i
	}
	cases := []struct {
		name    string
		s, p, o ID
		want    int
	}{
		{"???", NoID, NoID, NoID, 5},
		{"S??", id("s1"), NoID, NoID, 3},
		{"?P?", NoID, id("p1"), NoID, 3},
		{"??O", NoID, NoID, id("o1"), 3},
		{"SP?", id("s1"), id("p1"), NoID, 2},
		{"?PO", NoID, id("p1"), id("o1"), 2},
		{"S?O", id("s1"), NoID, id("o1"), 2},
		{"SPO hit", id("s1"), id("p1"), id("o1"), 1},
		{"SPO miss", id("s1"), id("p2"), id("o2"), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := match(s, tc.s, tc.p, tc.o)
			if len(got) != tc.want {
				t.Errorf("Match = %d rows, want %d", len(got), tc.want)
			}
			if n := Count(s, tc.s, tc.p, tc.o); n != tc.want {
				t.Errorf("Count = %d, want %d", n, tc.want)
			}
			// every returned triple must satisfy the pattern
			for _, tr := range got {
				if (tc.s != NoID && tr[0] != tc.s) ||
					(tc.p != NoID && tr[1] != tc.p) ||
					(tc.o != NoID && tr[2] != tc.o) {
					t.Errorf("triple %v violates pattern", tr)
				}
			}
		})
	}
}

// TestMatchEqualsNaiveScanProperty: index-based matching agrees with a
// naive scan for every bound/unbound combination over random graphs.
func TestMatchEqualsNaiveScanProperty(t *testing.T) {
	f := func(raw [][3]uint8, pat [3]uint8, mask uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		name := func(n uint8) string { return "n" + string(rune('a'+n%16)) }
		for _, tr := range raw {
			s.Add(rdf.NewTriple(
				rdf.IRI(name(tr[0])), rdf.IRI(name(tr[1])), rdf.IRI(name(tr[2]))))
		}
		s.Freeze()
		var q [3]ID
		for i := 0; i < 3; i++ {
			if mask&(1<<i) != 0 {
				if id, ok := s.Dict().Lookup(rdf.IRI(name(pat[i]))); ok {
					q[i] = id
				}
			}
		}
		got := match(s, q[0], q[1], q[2])
		naive := 0
		for _, tr := range s.Index(OrderSPO) {
			if (q[0] == NoID || tr[0] == q[0]) &&
				(q[1] == NoID || tr[1] == q[1]) &&
				(q[2] == NoID || tr[2] == q[2]) {
				naive++
			}
		}
		return len(got) == naive && Count(s, q[0], q[1], q[2]) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChooseOrder(t *testing.T) {
	cases := []struct {
		s, p, o bool
		want    Order
	}{
		{false, false, false, OrderSPO},
		{true, false, false, OrderSPO},
		{false, true, false, OrderPOS},
		{false, false, true, OrderOSP},
		{true, true, false, OrderSPO},
		{false, true, true, OrderPOS},
		{true, false, true, OrderOSP},
		{true, true, true, OrderSPO},
	}
	for _, tc := range cases {
		if got := ChooseOrder(tc.s, tc.p, tc.o); got != tc.want {
			t.Errorf("ChooseOrder(%v,%v,%v) = %v, want %v", tc.s, tc.p, tc.o, got, tc.want)
		}
	}
}

func TestOrderPermuteRoundTrip(t *testing.T) {
	tr := EncTriple{1, 2, 3}
	for _, ord := range []Order{OrderSPO, OrderPOS, OrderOSP} {
		if got := ord.Unpermute(ord.Permute(tr)); got != tr {
			t.Errorf("%v: unpermute(permute(%v)) = %v", ord, tr, got)
		}
	}
}

func TestStatistics(t *testing.T) {
	s := buildStore(
		[3]string{"s1", "p1", "o1"},
		[3]string{"s1", "p1", "o2"},
		[3]string{"s2", "p1", "o1"},
		[3]string{"s2", "p2", "o3"},
	)
	p1, _ := s.Dict().Lookup(rdf.IRI("p1"))
	p2, _ := s.Dict().Lookup(rdf.IRI("p2"))
	st := s.Stats()
	if got := st.PredCardinality(p1); got != 3 {
		t.Errorf("PredCardinality(p1) = %d, want 3", got)
	}
	if got := st.DistinctSubjects(p1); got != 2 {
		t.Errorf("DistinctSubjects(p1) = %d, want 2", got)
	}
	if got := st.DistinctObjects(p1); got != 2 {
		t.Errorf("DistinctObjects(p1) = %d, want 2", got)
	}
	if got := st.PredCardinality(p2); got != 1 {
		t.Errorf("PredCardinality(p2) = %d, want 1", got)
	}
	if got := st.DistinctPredicates(); got != 2 {
		t.Errorf("DistinctPredicates = %d, want 2", got)
	}
	if got := st.TotalDistinctSubjects(); got != 2 {
		t.Errorf("TotalDistinctSubjects = %d, want 2", got)
	}
	if got := st.TotalDistinctObjects(); got != 3 {
		t.Errorf("TotalDistinctObjects = %d, want 3", got)
	}
}

func TestLoadFromReader(t *testing.T) {
	doc := `<http://x/a> <http://x/p> <http://x/b> .
<http://x/a> <http://x/p> <http://x/b> .
<http://x/a> <http://x/q> "lit"^^<` + rdf.XSDString + `> .
`
	s := New()
	n, err := s.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("Load reported %d raw triples, want 3", n)
	}
	if s.Len() != 2 {
		t.Errorf("store has %d triples after dedup, want 2", s.Len())
	}
	if !s.Frozen() {
		t.Error("Load must freeze the store")
	}
}

func TestLoadBadInput(t *testing.T) {
	s := New()
	if _, err := s.Load(strings.NewReader("not ntriples")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestIterateBeforeFreezePanics(t *testing.T) {
	s := New()
	s.Add(rdf.NewTriple(rdf.IRI("a"), rdf.IRI("b"), rdf.IRI("c")))
	defer func() {
		if recover() == nil {
			t.Error("a range before Freeze should panic")
		}
	}()
	Range(s, NoID, NoID, NoID)
}

func TestEmptyStore(t *testing.T) {
	s := New()
	s.Freeze()
	if s.Len() != 0 {
		t.Fatal("empty store should have no triples")
	}
	if got := match(s, NoID, NoID, NoID); len(got) != 0 {
		t.Fatal("empty store should match nothing")
	}
	if s.Stats().TotalDistinctSubjects() != 0 || s.Stats().TotalDistinctObjects() != 0 {
		t.Fatal("empty store statistics should be zero")
	}
}

func TestRangePartitionPreservesOrder(t *testing.T) {
	s := New()
	for i := 0; i < 97; i++ {
		s.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("s%03d", i)),
			rdf.IRI("p"),
			rdf.IRI(fmt.Sprintf("o%03d", i%7)),
		))
	}
	s.Freeze()
	pid, _ := s.Dict().Lookup(rdf.IRI("p"))
	full := Range(s, NoID, pid, NoID)
	if len(full.Rows) != 97 {
		t.Fatalf("range has %d rows, want 97", len(full.Rows))
	}
	for _, parts := range []int{1, 2, 3, 8, 96, 97, 200} {
		ps := full.Partition(parts)
		if parts <= 97 && len(ps) != parts {
			t.Fatalf("Partition(%d) returned %d ranges", parts, len(ps))
		}
		var joined []EncTriple
		for _, p := range ps {
			if p.Ord != full.Ord || p.Lead != full.Lead || p.Filt != full.Filt {
				t.Fatalf("Partition(%d) changed range metadata", parts)
			}
			joined = append(joined, p.Rows...)
		}
		if len(joined) != len(full.Rows) {
			t.Fatalf("Partition(%d) covers %d rows, want %d", parts, len(joined), len(full.Rows))
		}
		for i := range joined {
			if joined[i] != full.Rows[i] {
				t.Fatalf("Partition(%d) reordered rows at %d", parts, i)
			}
		}
	}
	if got := full.Partition(0); len(got) != 1 {
		t.Fatalf("Partition(0) should clamp to one range, got %d", len(got))
	}
	empty := IndexRange{}
	if got := empty.Partition(4); len(got) != 1 || len(got[0].Rows) != 0 {
		t.Fatalf("empty range partition = %v", got)
	}
}

// TestRangeInMatchesIterate: for every explicit order choice, iterating a
// RangeIn range (residual filters applied) yields exactly the triples
// of the range Range chooses, independent of which index serves them.
func TestRangeInMatchesIterate(t *testing.T) {
	s := buildStore(
		[3]string{"s1", "p1", "o1"},
		[3]string{"s1", "p1", "o2"},
		[3]string{"s1", "p2", "o1"},
		[3]string{"s2", "p1", "o1"},
		[3]string{"s2", "p2", "o2"},
		[3]string{"s3", "p3", "o3"},
	)
	id := func(v string) ID {
		i, ok := s.Dict().Lookup(rdf.IRI(v))
		if !ok {
			t.Fatalf("missing term %s", v)
		}
		return i
	}
	collect := func(it *Iterator) []EncTriple {
		var out []EncTriple
		for {
			tr, ok := it.Next()
			if !ok {
				return out
			}
			out = append(out, tr)
		}
	}
	asSet := func(ts []EncTriple) map[EncTriple]bool {
		m := map[EncTriple]bool{}
		for _, tr := range ts {
			m[tr] = true
		}
		return m
	}
	patterns := [][3]ID{
		{NoID, NoID, NoID},
		{id("s1"), NoID, NoID},
		{NoID, id("p1"), NoID},
		{NoID, NoID, id("o1")},
		{id("s1"), id("p1"), NoID},
		{id("s1"), NoID, id("o1")},
		{NoID, id("p1"), id("o1")},
		{id("s1"), id("p1"), id("o1")},
	}
	for _, pat := range patterns {
		want := asSet(collect(Range(s, pat[0], pat[1], pat[2]).Iterator()))
		for _, ord := range []Order{OrderSPO, OrderPOS, OrderOSP} {
			r := s.RangeIn(ord, pat[0], pat[1], pat[2])
			got := asSet(collect(r.Iterator()))
			if len(got) != len(want) {
				t.Fatalf("pattern %v order %v: %d triples, want %d", pat, ord, len(got), len(want))
			}
			for tr := range want {
				if !got[tr] {
					t.Fatalf("pattern %v order %v: missing %v", pat, ord, tr)
				}
			}
		}
	}
}
