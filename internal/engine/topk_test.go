package engine_test

// The top-k oracle: ORDER BY … LIMIT/OFFSET on the batch executor keeps
// only the best offset+limit rows in a heap, and must return exactly
// what the same engine returns for the query without LIMIT/OFFSET,
// sliced — in order, ties included.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// topKStore holds 300 subjects with a heavily tied integer key (<urn:yr>,
// five values), a name, an optional key most subjects lack (<urn:opt>),
// and a key mixing numeric and non-numeric literals (<urn:mixed>) whose
// lexical and numeric orders interleave.
func topKStore() *store.Store {
	s := store.New()
	mixed := []rdf.Term{
		rdf.Integer(10), rdf.Integer(9), rdf.Literal("5x"), rdf.Literal(""),
		rdf.String("abc"), rdf.Literal("9"), rdf.TypedLiteral("1.5", rdf.XSDDecimal),
		rdf.String("10"), rdf.IRI("urn:mixed-iri"), rdf.Literal("-"),
	}
	for i := 0; i < 300; i++ {
		subj := rdf.IRI(fmt.Sprintf("urn:s%03d", (i*37)%300))
		s.Add(rdf.NewTriple(subj, rdf.IRI("urn:yr"), rdf.Integer(1990+i%5)))
		s.Add(rdf.NewTriple(subj, rdf.IRI("urn:name"), rdf.String(fmt.Sprintf("n%d", i%7))))
		if i%9 == 0 {
			s.Add(rdf.NewTriple(subj, rdf.IRI("urn:opt"), rdf.Integer(i%4)))
		}
		s.Add(rdf.NewTriple(subj, rdf.IRI("urn:mixed"), mixed[i%len(mixed)]))
	}
	s.Freeze()
	return s
}

// topKConfigs are the batch configurations the heap must agree with
// itself on: sequential, partitioned, and partitioned with two-row
// batches so heap replacement crosses every batch boundary.
func topKConfigs() []engine.Options {
	seq := engine.Native()
	seq.Name, seq.ParallelWorkers = "native-sequential", 1
	return append([]engine.Options{seq}, parallel4()...)
}

func TestTopKMatchesSortedSlice(t *testing.T) {
	s := topKStore()
	cases := []struct {
		name, where, order string
		offset, limit      int
		heap               bool // the plan keeps a bounded heap
	}{
		{"ties", "SELECT ?s ?yr WHERE { ?s <urn:yr> ?yr }", "ORDER BY ?yr", 7, 20, true},
		{"desc", "SELECT ?s ?yr WHERE { ?s <urn:yr> ?yr }", "ORDER BY DESC(?yr)", 2, 5, true},
		{"two keys", "SELECT ?s ?yr ?n WHERE { ?s <urn:yr> ?yr . ?s <urn:name> ?n }",
			"ORDER BY ?yr DESC(?n)", 11, 9, true},
		{"unbound key", "SELECT ?s ?o WHERE { ?s <urn:yr> ?yr OPTIONAL { ?s <urn:opt> ?o } }",
			"ORDER BY DESC(?o) ?yr", 1, 40, true},
		{"unbound first", "SELECT ?s ?o WHERE { ?s <urn:yr> ?yr OPTIONAL { ?s <urn:opt> ?o } }",
			"ORDER BY ?o", 260, 30, true},
		{"mixed numeric and string", "SELECT ?s ?m WHERE { ?s <urn:mixed> ?m }", "ORDER BY ?m", 25, 50, true},
		{"mixed, first rows", "SELECT ?s ?m WHERE { ?s <urn:mixed> ?m }", "ORDER BY ?m", 0, 3, true},
		{"mixed, descending", "SELECT ?s ?m WHERE { ?s <urn:mixed> ?m }", "ORDER BY DESC(?m)", 40, 100, true},
		{"offset past the end", "SELECT ?s ?yr WHERE { ?s <urn:yr> ?yr }", "ORDER BY ?yr", 1000, 5, true},
		{"limit 0", "SELECT ?s ?yr WHERE { ?s <urn:yr> ?yr }", "ORDER BY ?yr", 3, 0, true},
		{"limit past the end", "SELECT ?s ?yr WHERE { ?s <urn:yr> ?yr }", "ORDER BY DESC(?yr)", 0, 5000, true},
		{"distinct between", "SELECT DISTINCT ?yr ?n WHERE { ?s <urn:yr> ?yr . ?s <urn:name> ?n }",
			"ORDER BY ?n", 4, 6, false},
	}
	o := oracleOf(s)
	for _, tc := range cases {
		full := sparql.MustParse(tc.where+" "+tc.order, rdf.Prefixes)
		page := sparql.MustParse(fmt.Sprintf("%s %s LIMIT %d OFFSET %d",
			tc.where, tc.order, tc.limit, tc.offset), rdf.Prefixes)
		for _, opts := range topKConfigs() {
			plan, err := engine.New(s, opts).Explain(page)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Contains(plan, "top-"); got != tc.heap {
				t.Errorf("%s/%s: bounded heap in plan = %v, want %v:\n%s", tc.name, opts.Name, got, tc.heap, plan)
			}
			sorted := orderedRows(t, s, opts, full)
			want := sorted[min(tc.offset, len(sorted)):min(tc.offset+tc.limit, len(sorted))]
			if got := orderedRows(t, s, opts, page); !slices.Equal(got, want) {
				t.Errorf("%s/%s: LIMIT %d OFFSET %d returned\n%v\nthe sorted result's slice is\n%v",
					tc.name, opts.Name, tc.limit, tc.offset, got, want)
			}
		}
		// The solutions themselves, and the page, are the oracle's.
		agree(t, o.answer(full), s, full, tc.name, topKConfigs()...)
		agree(t, o.answer(page), s, page, tc.name+" page", topKConfigs()...)
	}
}

// TestTopKKeySequenceMatchesOracle: a page's order keys are determined
// by the ORDER BY alone (ties only decide which of equal-key rows fill
// it), so every configuration's page carries the oracle's key sequence.
// The projected columns are the keys, so each row is its keys.
func TestTopKKeySequenceMatchesOracle(t *testing.T) {
	s := topKStore()
	o := oracleOf(s)
	for _, src := range []string{
		"SELECT ?m WHERE { ?s <urn:mixed> ?m } ORDER BY ?m LIMIT 50 OFFSET 25",
		"SELECT ?yr ?n WHERE { ?s <urn:yr> ?yr . ?s <urn:name> ?n } ORDER BY DESC(?yr) ?n LIMIT 30 OFFSET 100",
		"SELECT ?o WHERE { ?s <urn:yr> ?yr OPTIONAL { ?s <urn:opt> ?o } } ORDER BY ?o LIMIT 40 OFFSET 250",
	} {
		q := sparql.MustParse(src, rdf.Prefixes)
		agree(t, o.answer(q), s, q, src, topKConfigs()...)
	}
}
