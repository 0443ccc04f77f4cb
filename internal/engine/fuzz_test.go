package engine_test

// Differential fuzzing against the oracle: generate random graphs and
// random BGP+FILTER/OPTIONAL/UNION/DISTINCT/ORDER BY/LIMIT queries,
// then assert that every operator configuration (operatorVariants)
// returns an answer the oracle allows (oracle_test.go): its solutions,
// in ORDER BY order, windowed by LIMIT. The generators are
// deterministic functions of their seeds, so every corpus entry and
// fuzzer crash reproduces exactly.
//
// TestDifferentialFuzzCorpus runs a bounded seeded corpus on every
// plain `go test`; FuzzEngineAgreement explores further seeds under
// `go test -fuzz=FuzzEngineAgreement ./internal/engine/`.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// fuzzTriples draws a deterministic graph over a closed vocabulary. The
// object pool deliberately contains distinct terms with equal values
// ("1"^^xsd:integer vs "01"^^xsd:integer): join binding is by term
// identity while FILTER `=` compares by value, and conflating the two
// is exactly the class of bug a differential fuzzer should surface.
func fuzzTriples(r *rand.Rand, n int) []rdf.Triple {
	subj := func() rdf.Term {
		if r.Intn(5) == 0 {
			return rdf.Blank(fmt.Sprintf("b%d", r.Intn(4)))
		}
		return rdf.IRI(fmt.Sprintf("http://x/s%d", r.Intn(6)))
	}
	pred := func() rdf.Term { return rdf.IRI(fmt.Sprintf("http://x/p%d", r.Intn(4))) }
	obj := func() rdf.Term {
		switch r.Intn(7) {
		case 0:
			return rdf.Integer(r.Intn(4))
		case 1:
			// Same value as rdf.Integer's canonical lexical form, but a
			// distinct dictionary entry.
			return rdf.TypedLiteral(fmt.Sprintf("0%d", r.Intn(4)), rdf.XSDInteger)
		case 2:
			return rdf.String(fmt.Sprintf("v%d", r.Intn(4)))
		case 3:
			return rdf.Blank(fmt.Sprintf("b%d", r.Intn(4)))
		case 4:
			// Literals `=` relates across classes: -0 equals 0, plain "1"
			// equals both 1 and "1"^^xsd:string (which do not equal each
			// other), "1"@en is numeric too. Here the value key is coarser
			// than `=`, and the compiled comparisons' fast paths branch.
			return []rdf.Term{
				rdf.TypedLiteral("-0", rdf.XSDInteger),
				rdf.Literal("1"),
				rdf.String("1"),
				rdf.LangLiteral("1", "en"),
				rdf.TypedLiteral("1.0", rdf.XSDDecimal),
			}[r.Intn(5)]
		default:
			return rdf.IRI(fmt.Sprintf("http://x/s%d", r.Intn(6)))
		}
	}
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.NewTriple(subj(), pred(), obj())
	}
	return out
}

// fuzzGraph serves triples from a frozen store or, when live is set,
// from an MVCC snapshot holding the first half in its base generation
// and the rest in its delta, so that ranges are two runs.
func fuzzGraph(t *testing.T, triples []rdf.Triple, live bool) store.Reader {
	cut := len(triples)
	if live {
		cut /= 2
	}
	s := store.New()
	for _, tr := range triples[:cut] {
		s.Add(tr)
	}
	s.Freeze()
	if !live {
		return s
	}
	m := mvcc.New(s, mvcc.MergePolicy{Disabled: true})
	t.Cleanup(m.Close)
	m.Apply(triples[cut:])
	sn := m.Snapshot()
	t.Cleanup(sn.Close)
	return sn
}

// fuzzQuery assembles a random SELECT from the algebra shapes the batch
// operators serve: BGPs, flattened and correlated joins of groups,
// OPTIONALs probed, hashed or re-opened per row, the closed-world
// negation idiom (Q6's and, nested, Q7's), UNIONs and FILTERs.
func fuzzQuery(r *rand.Rand) string {
	varName := func() string { return fmt.Sprintf("?v%d", r.Intn(5)) }
	term := func() string {
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("<http://x/s%d>", r.Intn(6))
		case 1:
			return fmt.Sprintf(`"v%d"^^xsd:string`, r.Intn(4))
		case 2:
			return fmt.Sprintf("%d", r.Intn(4))
		case 3:
			return fmt.Sprintf(`"0%d"^^xsd:integer`, r.Intn(4))
		default:
			return varName()
		}
	}
	patternOn := func(subj string) string {
		p := fmt.Sprintf("<http://x/p%d>", r.Intn(4))
		if r.Intn(3) == 0 {
			p = varName()
		}
		return fmt.Sprintf("%s %s %s .", subj, p, term())
	}
	pattern := func() string { return patternOn(varName()) }
	// A group of one pattern, sometimes with its own FILTER: on the
	// pattern's subject, which the batch path flattens into the joined
	// BGPs, or on any variable, possibly one bound only outside the
	// group, which makes the join a bind join.
	group := func() string {
		subj := varName()
		g := patternOn(subj)
		ops := []string{"!=", "<", ">="}
		switch r.Intn(4) {
		case 0:
			g += fmt.Sprintf(" FILTER (%s %s %d)", subj, ops[r.Intn(len(ops))], r.Intn(4))
		case 1:
			g += fmt.Sprintf(" FILTER (%s %s %d)", varName(), ops[r.Intn(len(ops))], r.Intn(4))
		}
		return "{ " + g + " }"
	}
	// An IRI equality, either way round — the conjunct filter pinning
	// turns into an index key — sometimes on an IRI the graph never uses.
	pin := func() string {
		iri := "<http://x/nowhere>"
		switch r.Intn(3) {
		case 0:
			iri = fmt.Sprintf("<http://x/p%d>", r.Intn(4))
		case 1:
			iri = fmt.Sprintf("<http://x/s%d>", r.Intn(6))
		}
		if r.Intn(2) == 0 {
			return fmt.Sprintf("%s = %s", iri, varName())
		}
		return fmt.Sprintf("%s = %s", varName(), iri)
	}
	var b strings.Builder
	// Mostly multi-pattern BGPs, so join stages dominate; the occasional
	// unit BGP runs as a scan-only batch chain.
	n := 2 + r.Intn(2)
	if r.Intn(4) == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		b.WriteString(pattern())
		b.WriteString("\n")
	}
	if r.Intn(2) == 0 {
		b.WriteString("OPTIONAL { " + pattern())
		switch r.Intn(6) {
		case 0, 1:
			fmt.Fprintf(&b, " FILTER (%s = %s)", varName(), varName())
		case 2:
			fmt.Fprintf(&b, " FILTER (%s)", pin())
		}
		b.WriteString(" }\n")
	}
	// The closed-world negation idiom: an OPTIONAL binding ?w0, which
	// nothing else binds, and FILTER (!bound(?w0)); nested, as Q7 nests
	// it, the OPTIONAL drops its own matches that ?w0 extends to ?w1.
	if r.Intn(4) == 0 {
		neg := fmt.Sprintf("%s <http://x/p%d> ?w0 .", varName(), r.Intn(4))
		if r.Intn(2) == 0 {
			neg += fmt.Sprintf(" OPTIONAL { ?w0 <http://x/p%d> ?w1 } FILTER (!bound(?w1))", r.Intn(4))
		}
		b.WriteString("OPTIONAL { " + neg + " } FILTER (!bound(?w0))\n")
	}
	// Explicit joins of groups: a UNION, a bare pair of groups, or a
	// group holding an OPTIONAL.
	if r.Intn(3) == 0 {
		b.WriteString(group() + " UNION " + group() + "\n")
	}
	if r.Intn(5) == 0 {
		b.WriteString(group() + " " + group() + "\n")
	}
	if r.Intn(5) == 0 {
		b.WriteString("{ " + pattern() + " OPTIONAL { " + pattern() + " } }\n")
	}
	if r.Intn(2) == 0 {
		ops := []string{"=", "!=", "<", ">", "<=", ">="}
		cond := fmt.Sprintf("%s %s %s", varName(), ops[r.Intn(len(ops))], term())
		switch r.Intn(4) {
		case 0:
			cond = pin()
		case 1:
			cond = pin() + " && " + cond
		}
		fmt.Fprintf(&b, "FILTER (%s)\n", cond)
	}
	distinct := ""
	if r.Intn(3) == 0 {
		distinct = "DISTINCT "
	}
	q := fmt.Sprintf("SELECT %s?v0 ?v1 ?v2 WHERE {\n%s}", distinct, b.String())
	// ?v4 is never projected: under DISTINCT, the ORDER BY is the one
	// operator reading it, which keeps it live for a semi-join stage.
	if r.Intn(4) == 0 {
		q += " ORDER BY ?v0 ?v4 ?v1"
	}
	if r.Intn(4) == 0 {
		q += fmt.Sprintf(" LIMIT %d", 1+r.Intn(6))
	}
	return q
}

// checkEngineAgreement runs one (graph seed, query seed) pair through
// every configuration and fails on any answer the oracle, evaluating
// the generated triples themselves, does not allow. Under a LIMIT any
// rows of the solutions may fill the window unless ORDER BY decides
// them. One pair in four runs over an MVCC snapshot with a live delta.
func checkEngineAgreement(t *testing.T, gseed, qseed uint64) {
	t.Helper()
	triples := fuzzTriples(rand.New(rand.NewSource(int64(gseed))), 20+int(gseed%60))
	s := fuzzGraph(t, triples, (gseed+qseed)%4 == 0)
	src := fuzzQuery(rand.New(rand.NewSource(int64(qseed))))
	q, err := sparql.Parse(src, rdf.Prefixes)
	if err != nil {
		t.Fatalf("generated unparsable query %q: %v", src, err)
	}
	want := newOracle(triples).answer(q)
	for _, opts := range operatorVariants() {
		res, err := engine.NewReader(s, opts).Query(context.Background(), q)
		if err != nil {
			t.Fatalf("gseed=%d qseed=%d: %s: %v", gseed, qseed, opts.Name, err)
		}
		if err := want.allows(res); err != nil {
			t.Fatalf("gseed=%d qseed=%d: %s disagrees with the oracle: %v\nquery:\n%s\noracle: %q\nengine: %q",
				gseed, qseed, opts.Name, err, src, want.groups, render(res))
		}
	}
}

// TestDifferentialFuzzCorpus is the bounded corpus that runs on every
// plain `go test`: a deterministic sweep over seed pairs, small enough
// for CI but wide enough to cover scans, all three join operators,
// filters, probed, hashed and correlated OPTIONALs, bind joins, and
// batch-boundary states via the tiny-batch configuration.
func TestDifferentialFuzzCorpus(t *testing.T) {
	pairs := 120
	if testing.Short() {
		pairs = 30
	}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < pairs; i++ {
		checkEngineAgreement(t, r.Uint64()%1000, r.Uint64()%1000)
	}
}

// FuzzEngineAgreement lets `go test -fuzz` explore seed pairs beyond
// the corpus. Every crash is a two-integer reproduction recipe.
func FuzzEngineAgreement(f *testing.F) {
	f.Add(uint64(1), uint64(1))
	f.Add(uint64(7), uint64(23))
	f.Add(uint64(100), uint64(999))
	f.Fuzz(func(t *testing.T, gseed, qseed uint64) {
		checkEngineAgreement(t, gseed%10_000, qseed%10_000)
	})
}
