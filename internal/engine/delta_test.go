package engine_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// TestEnginesAgreeOverLiveDelta: over an MVCC snapshot whose ranges are
// two runs, every paper query returns, as a multiset, what the same
// store returns after MergeNow folds the delta into one run per index.
// IDs are never renumbered by a merge, so both sides run over the same
// IDs. The delta is either the generator's next 2k triples after a 10k
// base (new subjects, the served update shape) or every sixth triple of
// the same 12k document (so a subject's rows straddle both runs, and
// every probe shape reads two runs). Sequential, tiny-batch and
// partitioned configurations each read every range shape: scans,
// merge, hash and nested-loop joins, semi-joins, OPTIONAL probes, dedup
// stages and the tuple iterator.
func TestEnginesAgreeOverLiveDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("generator-backed; skipped in -short")
	}
	var doc bytes.Buffer
	g, err := gen.New(gen.DefaultParams(12_000), &doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(doc.Bytes(), []byte("\n"))
	var rest, sixth [][]byte
	for i, l := range lines {
		if i%6 == 5 {
			sixth = append(sixth, l)
		} else {
			rest = append(rest, l)
		}
	}
	var paper []namedQuery
	for _, q := range queries.All() {
		paper = append(paper, namedQuery{id: q.ID, q: q.Parse()})
	}
	// Q2's OPTIONAL probes a single-valued property, whose rows never
	// straddle the two runs; a creator probe does.
	paper = append(paper, parseNamed(t, "optional-creator", `SELECT ?doc ?creator WHERE {
		?doc rdf:type bench:Article OPTIONAL { ?doc dc:creator ?creator } }`))
	for _, split := range []struct {
		name        string
		base, delta [][]byte
	}{{"next2k", lines[:10_000], lines[10_000:]}, {"every6th", rest, sixth}} {
		t.Run(split.name, func(t *testing.T) {
			base := store.New()
			if _, err := base.Load(bytes.NewReader(bytes.Join(split.base, nil))); err != nil {
				t.Fatal(err)
			}
			delta, err := rdf.NewReader(bytes.NewReader(bytes.Join(split.delta, nil))).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if n := agreeOverDelta(t, base, delta, paper); n < 1_900 {
				t.Fatalf("the delta holds %d triples, want about 2k", n)
			}
		})
	}
	// A dedup stage leaves a one-row anchor's slots out of its keys; an
	// anchor with one base row and one delta row is two rows.
	t.Run("dedup-anchor", func(t *testing.T) {
		base := store.New()
		var delta []rdf.Triple
		for i, x := range []string{"x1", "x2"} {
			ts := []rdf.Triple{tri("a", "p", x), tri(x, "q", "y"+x)}
			for _, z := range []string{"z1", "z2", "z3"} {
				ts = append(ts, tri(x, "t", z))
			}
			if i == 0 {
				for _, tr := range ts {
					base.Add(tr)
				}
			} else {
				delta = ts
			}
		}
		q := parseNamed(t, "distinct-x-z", `SELECT DISTINCT ?x ?z WHERE {
			<http://x/a> <http://x/p> ?x . ?x <http://x/q> ?y . ?x <http://x/t> ?z }`)
		q.plan = "scan[SPO rows=2] merge[?x SPO rows=10] dedup[?x]"
		agreeOverDelta(t, base, delta, []namedQuery{q})
	})
}

type namedQuery struct {
	id   string
	q    *sparql.Query
	plan string // a part of its plan over base+delta, if not empty
}

func parseNamed(t *testing.T, id, src string) namedQuery {
	t.Helper()
	q, err := sparql.Parse(src, rdf.Prefixes)
	if err != nil {
		t.Fatal(err)
	}
	return namedQuery{id: id, q: q}
}

func tri(s, p, o string) rdf.Triple {
	return rdf.NewTriple(rdf.IRI("http://x/"+s), rdf.IRI("http://x/"+p), rdf.IRI("http://x/"+o))
}

// agreeOverDelta commits delta over base and holds the snapshot over
// both to the merged one on every query, under the sequential,
// tiny-batch and partitioned configurations. It returns the number of
// triples the delta held.
func agreeOverDelta(t *testing.T, base *store.Store, delta []rdf.Triple, qs []namedQuery) int {
	t.Helper()
	live := mvcc.New(base, mvcc.MergePolicy{Disabled: true})
	defer live.Close()
	n := live.Apply(delta)
	two := live.Snapshot()
	defer two.Close()
	live.MergeNow()
	one := live.Snapshot()
	defer one.Close()
	if one.DeltaLen() != 0 || one.Len() != two.Len() {
		t.Fatalf("merged snapshot: delta %d, %d triples; live: %d", one.DeltaLen(), one.Len(), two.Len())
	}
	batch7 := engine.Native()
	batch7.Name, batch7.BatchSize = "native-batch7", 7
	for _, q := range qs {
		for _, opts := range []engine.Options{engine.Native(), batch7, parallel4()[0]} {
			want := sortedRows(t, engine.NewReader(one, opts), q.q)
			if got := sortedRows(t, engine.NewReader(two, opts), q.q); !slices.Equal(got, want) {
				t.Errorf("%s/%s: %d rows over base+delta, %d after the merge", q.id, opts.Name, len(got), len(want))
			}
		}
		if q.plan == "" {
			continue
		}
		if plan, err := engine.NewReader(two, engine.Native()).Explain(q.q); err != nil || !strings.Contains(plan, q.plan) {
			t.Errorf("%s: plan over base+delta lacks %q (%v):\n%s", q.id, q.plan, err, plan)
		}
	}
	return n
}
