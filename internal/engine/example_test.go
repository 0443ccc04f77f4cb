package engine_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/sparql"
)

// The examples print counts, ORDER BY'd rows, and aggregates sorted
// with a tie-break. The row order of a query without ORDER BY follows
// the store's dictionary IDs; Freeze numbers them in Compare order, so
// it is fixed by the document too, but it is not a contract of the
// engine, and the examples do not show it.

// exampleEngine generates the paper's document up to the given triple
// count (the fixed default seed) and returns the native engine over it.
func exampleEngine(triples int64) (*engine.Engine, *gen.Stats) {
	st, stats, err := snapshot.GenerateStore(gen.DefaultParams(triples))
	if err != nil {
		log.Fatal(err)
	}
	return engine.New(st, engine.Native()), stats
}

// paper parses the benchmark query with the given identifier.
func paper(id string) *sparql.Query {
	q, _ := queries.ByID(id)
	return q.Parse()
}

// custom parses src with the standard SP2Bench prefixes (rdf.Prefixes)
// predeclared.
func custom(src string) *sparql.Query { return sparql.MustParse(src, rdf.Prefixes) }

func run(eng *engine.Engine, q *sparql.Query) *engine.Result {
	res, err := eng.Query(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// count is run's streaming counterpart: Engine.Count materializes no
// row, which is what the benchmark harness records.
func count(eng *engine.Engine, q *sparql.Query) int {
	n, err := eng.Count(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	return n
}

// Example generates a 10k-triple DBLP-like document, loads it into the
// native engine, and runs benchmark query Q1. Generation is
// deterministic: the same parameters produce the same document on
// every platform.
func Example() {
	eng, stats := exampleEngine(10_000)
	fmt.Printf("generated %d triples, data up to year %d\n", stats.Triples, stats.EndYear)
	fmt.Printf("%d articles, %d inproceedings, %d distinct authors\n",
		stats.ClassCounts[0], stats.ClassCounts[1], stats.DistinctAuthors)

	// Q1: the year of publication of "Journal 1 (1940)". It returns
	// exactly one row at every scale.
	res := run(eng, paper("q1"))
	fmt.Printf("Q1 (%d row): Journal 1 (1940) was issued in %s\n", res.Len(), res.Rows[0][0].Value)
	// Output:
	// generated 10003 triples, data up to year 1954
	// 871 articles, 19 inproceedings, 513 distinct authors
	// Q1 (1 row): Journal 1 (1940) was issued in 1940
}

// ExampleEngine_Query runs an ad-hoc query with the standard SP2Bench
// prefixes predeclared: the lexicographically first journal titles.
func ExampleEngine_Query() {
	eng, _ := exampleEngine(10_000)
	res := run(eng, custom(`
		SELECT ?title
		WHERE { ?j rdf:type bench:Journal . ?j dc:title ?title }
		ORDER BY ?title LIMIT 3`))
	for _, row := range res.Rows {
		fmt.Println(row[0].Value)
	}
	// Output:
	// Journal 1 (1936)
	// Journal 1 (1937)
	// Journal 1 (1938)
}

// ExampleEngine_Count counts a query's solutions without materializing
// a row, as the benchmark harness does. Q9 asks for the predicates
// that touch a person in either direction; the paper's answer is
// exactly 4 at every scale.
func ExampleEngine_Count() {
	eng, _ := exampleEngine(10_000)
	fmt.Printf("Q9: %d predicates\n", count(eng, paper("q9")))
	// Output: Q9: 4 predicates
}

// Example_erdos explores the social network the paper builds into its
// data: Paul Erdős writes 10 publications and edits 2 each year from
// 1940 to 1996. Q12b asks whether anybody has Erdős number 1 or 2, Q10
// lists everything he is involved in, and Q8 counts Erdős numbers 1 and
// 2 together (the paper's UNION showcase).
func Example_erdos() {
	eng, _ := exampleEngine(25_000)
	fmt.Printf("Q12b, someone has Erdős number <= 2: %v\n", run(eng, paper("q12b")).Ask)

	res := run(eng, paper("q10"))
	byPred := map[string]int{}
	for _, row := range res.Rows {
		byPred[row[1].Value]++
	}
	preds := make([]string, 0, len(byPred))
	for p := range byPred {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	fmt.Printf("Q10: %d subjects relate to Paul Erdős\n", res.Len())
	for _, p := range preds {
		fmt.Printf("  %s %d\n", p, byPred[p])
	}

	// Erdős number 1: his direct coauthors.
	res = run(eng, custom(`
		SELECT DISTINCT ?name
		WHERE {
			?doc dc:creator person:Paul_Erdoes .
			?doc dc:creator ?coauthor .
			?coauthor foaf:name ?name
		} ORDER BY ?name LIMIT 5`))
	fmt.Println("Erdős number 1, first five:")
	for _, row := range res.Rows {
		fmt.Println("  " + row[0].Value)
	}
	fmt.Printf("Q8: %d people have Erdős number 1 or 2\n", run(eng, paper("q8")).Len())
	// Output:
	// Q12b, someone has Erdős number <= 2: true
	// Q10: 256 subjects relate to Paul Erdős
	//   http://purl.org/dc/elements/1.1/creator 234
	//   http://swrc.ontoware.org/ontology#editor 22
	// Erdős number 1, first five:
	//   Alice Gerber
	//   Ana Arnold
	//   Ana Tanaka
	//   Arjun Ackermann
	//   Arjun Sokolov
	// Q8: 125 people have Erdős number 1 or 2
}

// Example_negation shows closed-world negation. SPARQL 1.0 has no NOT
// EXISTS, so negation is OPTIONAL + FILTER(!bound(...)): the pattern
// behind Q6 (single negation) and Q7 (double negation), the suite's
// hardest queries in the paper.
func Example_negation() {
	eng, _ := exampleEngine(25_000)

	// Q6: per year, the publications of authors with no publication in
	// any earlier year. The OPTIONAL block looks for an earlier
	// publication of the same author; !bound(?author2) keeps the rows
	// where that search failed.
	res := run(eng, paper("q6"))
	perDecade := map[string]int{}
	for _, row := range res.Rows {
		perDecade[row[0].Value[:3]+"0s"]++
	}
	decades := make([]string, 0, len(perDecade))
	for d := range perDecade {
		decades = append(decades, d)
	}
	sort.Strings(decades)
	fmt.Printf("Q6: %d debut publications\n", res.Len())
	for _, d := range decades {
		fmt.Printf("  %s: %d\n", d, perDecade[d])
	}

	// Q7: titles of documents cited at least once, but not by any
	// document that is itself uncited: a double negation over the
	// rdf:Bag citation containers. The DBLP citation system is sparse
	// (the paper's Section III-D): at this scale no title qualifies.
	fmt.Printf("Q7: %d titles\n", run(eng, paper("q7")).Len())

	// The same encoding in a custom query: authors who wrote an article
	// but never an inproceedings.
	n := count(eng, custom(`
		SELECT DISTINCT ?name
		WHERE {
			?article rdf:type bench:Article .
			?article dc:creator ?person .
			?person foaf:name ?name
			OPTIONAL {
				?inproc rdf:type bench:Inproceedings .
				?inproc dc:creator ?person2
				FILTER (?person = ?person2)
			}
			FILTER (!bound(?person2))
		}`))
	fmt.Printf("%d authors wrote articles but never an inproceedings\n", n)
	// Output:
	// Q6: 1484 debut publications
	//   1930s: 86
	//   1940s: 325
	//   1950s: 711
	//   1960s: 362
	// Q7: 0 titles
	// 1154 authors wrote articles but never an inproceedings
}

// Example_bibexplorer slices the bibliography by venue and author, the
// workload the paper's introduction motivates. SPARQL 1.0 has no
// aggregation, so grouping happens client-side over SELECT results, as
// applications of the time did.
func Example_bibexplorer() {
	eng, _ := exampleEngine(25_000)

	// Articles per journal: join articles to their venue, group in Go.
	byJournal := map[string]int{}
	for _, row := range run(eng, custom(`
		SELECT ?jtitle
		WHERE {
			?article rdf:type bench:Article .
			?article swrc:journal ?journal .
			?journal dc:title ?jtitle
		}`)).Rows {
		byJournal[row[0].Value]++
	}
	fmt.Printf("top journals by article count (of %d):\n", len(byJournal))
	for _, kv := range topN(byJournal, 3) {
		fmt.Printf("  %s: %d\n", kv.k, kv.v)
	}

	// The most prolific authors: the power-law tail of Figure 2(c).
	byAuthor := map[string]int{}
	for _, row := range run(eng, custom(`
		SELECT ?name
		WHERE { ?doc dc:creator ?person . ?person foaf:name ?name }`)).Rows {
		byAuthor[row[0].Value]++
	}
	fmt.Println("most prolific authors:")
	for _, kv := range topN(byAuthor, 5) {
		fmt.Printf("  %s: %d\n", kv.k, kv.v)
	}

	// Authors in both journals and conferences: Q5b's join shape.
	n := count(eng, custom(`
		SELECT DISTINCT ?person ?name
		WHERE {
			?article rdf:type bench:Article .
			?article dc:creator ?person .
			?inproc rdf:type bench:Inproceedings .
			?inproc dc:creator ?person .
			?person foaf:name ?name
		}`))
	fmt.Printf("authors in both journals and conferences: %d\n", n)
	// Output:
	// top journals by article count (of 81):
	//   Journal 1 (1944): 42
	//   Journal 4 (1959): 40
	//   Journal 1 (1950): 39
	// most prolific authors:
	//   Paul Erdoes: 234
	//   Dieter Almeida: 66
	//   Henri Peters: 56
	//   Jorge Ueda: 39
	//   Lukas Vasquez: 38
	// authors in both journals and conferences: 81
}

type kv struct {
	k string
	v int
}

// topN returns m's n largest entries, ties broken by key, so the
// output does not depend on map or row order.
func topN(m map[string]int, n int) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].v != out[j].v {
			return out[i].v > out[j].v
		}
		return out[i].k < out[j].k
	})
	return out[:min(n, len(out))]
}
