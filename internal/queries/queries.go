// Package queries provides the 17 SP2Bench benchmark queries (paper
// appendix) together with the per-query characteristics of Table II and
// the structural expectations the paper states in Section V — the facts
// the integration tests and the harness assert.
//
// The query texts are verbatim from the appendix, with one correction: the
// paper prints Q12c's predicate as "rfd:type", an obvious typo for
// rdf:type (the official SP2Bench distribution uses rdf:type).
package queries

import (
	"sort"
	"strings"
	"sync"

	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
)

// Prologue is the standard prefix set the benchmark queries assume.
var Prologue = rdf.Prefixes

// Query is one benchmark query with its Table II metadata.
type Query struct {
	// ID is the paper's identifier: "q1" ... "q12c".
	ID string
	// Text is the SPARQL source (without prologue; Prologue supplies the
	// prefixes).
	Text string
	// Description paraphrases the paper's one-line statement of intent.
	Description string
	// Operators lists the SPARQL operators used (Table II row 1):
	// subsets of {AND, FILTER, UNION, OPTIONAL}.
	Operators []string
	// Modifiers lists solution modifiers (Table II row 2): subsets of
	// {DISTINCT, LIMIT, OFFSET, ORDER BY}.
	Modifiers []string
	// FilterPushing reports whether filter pushing applies (row 4).
	FilterPushing bool
	// PatternReuse reports whether graph pattern reuse applies (row 5).
	PatternReuse bool
	// DataAccess lists accessed RDF features (row 6): subsets of
	// {BLANK NODES, LITERALS, URIS, LARGE LITERALS, CONTAINERS}.
	DataAccess []string
}

// Parse returns the parsed form of the query.
func (q Query) Parse() *sparql.Query {
	return sparql.MustParse(q.Text, Prologue)
}

// All returns the benchmark queries in paper order.
func All() []Query {
	out := make([]Query, len(catalog))
	copy(out, catalog)
	return out
}

// ByID returns the query with the given identifier (e.g. "q3b").
func ByID(id string) (Query, bool) {
	for _, q := range catalog {
		if q.ID == id {
			return q, true
		}
	}
	return Query{}, false
}

// IDs returns all query identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(catalog))
	for i, q := range catalog {
		ids[i] = q.ID
	}
	return ids
}

// PrologueText renders Prologue as a PREFIX block in sorted order — what
// backends that cannot take a prefix map (remote endpoints) prepend to
// the query texts. Computed once: callers sit on per-operation hot
// paths of the benchmark drivers.
var PrologueText = sync.OnceValue(func() string {
	names := make([]string, 0, len(Prologue))
	for name := range Prologue {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString("PREFIX ")
		b.WriteString(name)
		b.WriteString(": <")
		b.WriteString(Prologue[name])
		b.WriteString(">\n")
	}
	return b.String()
})

var catalog = []Query{
	{
		ID:          "q1",
		Description: "Return the year of publication of Journal 1 (1940).",
		Operators:   []string{"AND"},
		DataAccess:  []string{"LITERALS", "URIS"},
		Text: `SELECT ?yr
WHERE {
  ?journal rdf:type bench:Journal .
  ?journal dc:title "Journal 1 (1940)"^^xsd:string .
  ?journal dcterms:issued ?yr
}`,
	},
	{
		ID:          "q2",
		Description: "Extract all inproceedings with a fixed set of properties, including the optional abstract.",
		Operators:   []string{"AND", "OPTIONAL"},
		Modifiers:   []string{"ORDER BY"},
		DataAccess:  []string{"LITERALS", "URIS", "LARGE LITERALS"},
		Text: `SELECT ?inproc ?author ?booktitle ?title ?proc ?ee ?page ?url ?yr ?abstract
WHERE {
  ?inproc rdf:type bench:Inproceedings .
  ?inproc dc:creator ?author .
  ?inproc bench:booktitle ?booktitle .
  ?inproc dc:title ?title .
  ?inproc dcterms:partOf ?proc .
  ?inproc rdfs:seeAlso ?ee .
  ?inproc swrc:pages ?page .
  ?inproc foaf:homepage ?url .
  ?inproc dcterms:issued ?yr
  OPTIONAL { ?inproc bench:abstract ?abstract }
} ORDER BY ?yr`,
	},
	{
		ID:            "q3a",
		Description:   "Select all articles with property swrc:pages (non-selective filter).",
		Operators:     []string{"AND", "FILTER"},
		FilterPushing: true,
		DataAccess:    []string{"LITERALS", "URIS"},
		Text: `SELECT ?article
WHERE {
  ?article rdf:type bench:Article .
  ?article ?property ?value
  FILTER (?property = swrc:pages)
}`,
	},
	{
		ID:            "q3b",
		Description:   "Select all articles with property swrc:month (selective filter).",
		Operators:     []string{"AND", "FILTER"},
		FilterPushing: true,
		DataAccess:    []string{"LITERALS", "URIS"},
		Text: `SELECT ?article
WHERE {
  ?article rdf:type bench:Article .
  ?article ?property ?value
  FILTER (?property = swrc:month)
}`,
	},
	{
		ID:            "q3c",
		Description:   "Select all articles with property swrc:isbn (never-satisfied filter).",
		Operators:     []string{"AND", "FILTER"},
		FilterPushing: true,
		DataAccess:    []string{"LITERALS", "URIS"},
		Text: `SELECT ?article
WHERE {
  ?article rdf:type bench:Article .
  ?article ?property ?value
  FILTER (?property = swrc:isbn)
}`,
	},
	{
		ID:           "q4",
		Description:  "Distinct pairs of article author names publishing in the same journal.",
		Operators:    []string{"AND", "FILTER"},
		Modifiers:    []string{"DISTINCT"},
		PatternReuse: true,
		DataAccess:   []string{"BLANK NODES", "LITERALS", "URIS"},
		Text: `SELECT DISTINCT ?name1 ?name2
WHERE {
  ?article1 rdf:type bench:Article .
  ?article2 rdf:type bench:Article .
  ?article1 dc:creator ?author1 .
  ?author1 foaf:name ?name1 .
  ?article2 dc:creator ?author2 .
  ?author2 foaf:name ?name2 .
  ?article1 swrc:journal ?journal .
  ?article2 swrc:journal ?journal
  FILTER (?name1 < ?name2)
}`,
	},
	{
		ID:            "q5a",
		Description:   "Names of persons that authored both an inproceeding and an article (implicit join via FILTER).",
		Operators:     []string{"AND", "FILTER"},
		Modifiers:     []string{"DISTINCT"},
		FilterPushing: true,
		DataAccess:    []string{"BLANK NODES", "LITERALS", "URIS"},
		Text: `SELECT DISTINCT ?person ?name
WHERE {
  ?article rdf:type bench:Article .
  ?article dc:creator ?person .
  ?inproc rdf:type bench:Inproceedings .
  ?inproc dc:creator ?person2 .
  ?person foaf:name ?name .
  ?person2 foaf:name ?name2
  FILTER (?name = ?name2)
}`,
	},
	{
		ID:          "q5b",
		Description: "Names of persons that authored both an inproceeding and an article (explicit join).",
		Operators:   []string{"AND"},
		Modifiers:   []string{"DISTINCT"},
		DataAccess:  []string{"BLANK NODES", "LITERALS", "URIS"},
		Text: `SELECT DISTINCT ?person ?name
WHERE {
  ?article rdf:type bench:Article .
  ?article dc:creator ?person .
  ?inproc rdf:type bench:Inproceedings .
  ?inproc dc:creator ?person .
  ?person foaf:name ?name
}`,
	},
	{
		ID:            "q6",
		Description:   "Per year, publications of authors that did not publish in earlier years (closed-world negation).",
		Operators:     []string{"AND", "FILTER", "OPTIONAL"},
		FilterPushing: true,
		PatternReuse:  true,
		DataAccess:    []string{"BLANK NODES", "LITERALS", "URIS"},
		Text: `SELECT ?yr ?name ?doc
WHERE {
  ?class rdfs:subClassOf foaf:Document .
  ?doc rdf:type ?class .
  ?doc dcterms:issued ?yr .
  ?doc dc:creator ?author .
  ?author foaf:name ?name
  OPTIONAL {
    ?class2 rdfs:subClassOf foaf:Document .
    ?doc2 rdf:type ?class2 .
    ?doc2 dcterms:issued ?yr2 .
    ?doc2 dc:creator ?author2
    FILTER (?author = ?author2 && ?yr2 < ?yr)
  }
  FILTER (!bound(?author2))
}`,
	},
	{
		ID:            "q7",
		Description:   "Titles of papers cited at least once, but only by papers that are themselves cited (double negation).",
		Operators:     []string{"AND", "FILTER", "OPTIONAL"},
		Modifiers:     []string{"DISTINCT"},
		FilterPushing: true,
		PatternReuse:  true,
		DataAccess:    []string{"LITERALS", "URIS", "CONTAINERS"},
		Text: `SELECT DISTINCT ?title
WHERE {
  ?class rdfs:subClassOf foaf:Document .
  ?doc rdf:type ?class .
  ?doc dc:title ?title .
  ?bag2 ?member2 ?doc .
  ?doc2 dcterms:references ?bag2
  OPTIONAL {
    ?class3 rdfs:subClassOf foaf:Document .
    ?doc3 rdf:type ?class3 .
    ?doc3 dcterms:references ?bag3 .
    ?bag3 ?member3 ?doc
    OPTIONAL {
      ?class4 rdfs:subClassOf foaf:Document .
      ?doc4 rdf:type ?class4 .
      ?doc4 dcterms:references ?bag4 .
      ?bag4 ?member4 ?doc3
    }
    FILTER (!bound(?doc4))
  }
  FILTER (!bound(?doc3))
}`,
	},
	{
		ID:            "q8",
		Description:   "Authors with Erdős number 1 or 2.",
		Operators:     []string{"AND", "FILTER", "UNION"},
		Modifiers:     []string{"DISTINCT"},
		FilterPushing: true,
		PatternReuse:  true,
		DataAccess:    []string{"BLANK NODES", "LITERALS", "URIS"},
		Text: `SELECT DISTINCT ?name
WHERE {
  ?erdoes rdf:type foaf:Person .
  ?erdoes foaf:name "Paul Erdoes"^^xsd:string .
  {
    ?doc dc:creator ?erdoes .
    ?doc dc:creator ?author .
    ?doc2 dc:creator ?author .
    ?doc2 dc:creator ?author2 .
    ?author2 foaf:name ?name
    FILTER (?author != ?erdoes && ?doc2 != ?doc && ?author2 != ?erdoes && ?author2 != ?author)
  } UNION {
    ?doc dc:creator ?erdoes .
    ?doc dc:creator ?author .
    ?author foaf:name ?name
    FILTER (?author != ?erdoes)
  }
}`,
	},
	{
		ID:           "q9",
		Description:  "Incoming and outgoing properties of persons (schema exploration).",
		Operators:    []string{"AND", "UNION"},
		Modifiers:    []string{"DISTINCT"},
		PatternReuse: true,
		DataAccess:   []string{"BLANK NODES", "LITERALS", "URIS"},
		Text: `SELECT DISTINCT ?predicate
WHERE {
  {
    ?person rdf:type foaf:Person .
    ?subject ?predicate ?person
  } UNION {
    ?person rdf:type foaf:Person .
    ?person ?predicate ?object
  }
}`,
	},
	{
		ID:          "q10",
		Description: "All subjects standing in any relation to Paul Erdős (object-bound access).",
		Operators:   []string{},
		DataAccess:  []string{"URIS"},
		Text: `SELECT ?subj ?pred
WHERE { ?subj ?pred person:Paul_Erdoes }`,
	},
	{
		ID:          "q11",
		Description: "Ten electronic edition URLs starting from the 51st, in lexicographic order.",
		Operators:   []string{},
		Modifiers:   []string{"LIMIT", "OFFSET", "ORDER BY"},
		DataAccess:  []string{"LITERALS", "URIS"},
		Text: `SELECT ?ee
WHERE { ?publication rdfs:seeAlso ?ee }
ORDER BY ?ee LIMIT 10 OFFSET 50`,
	},
	{
		ID:            "q12a",
		Description:   "ASK variant of Q5a.",
		Operators:     []string{"AND", "FILTER"},
		FilterPushing: true,
		DataAccess:    []string{"BLANK NODES", "LITERALS", "URIS"},
		Text: `ASK {
  ?article rdf:type bench:Article .
  ?article dc:creator ?person .
  ?inproc rdf:type bench:Inproceedings .
  ?inproc dc:creator ?person2 .
  ?person foaf:name ?name .
  ?person2 foaf:name ?name2
  FILTER (?name = ?name2)
}`,
	},
	{
		ID:            "q12b",
		Description:   "ASK variant of Q8.",
		Operators:     []string{"AND", "FILTER", "UNION"},
		FilterPushing: true,
		PatternReuse:  true,
		DataAccess:    []string{"BLANK NODES", "LITERALS", "URIS"},
		Text: `ASK {
  ?erdoes rdf:type foaf:Person .
  ?erdoes foaf:name "Paul Erdoes"^^xsd:string .
  {
    ?doc dc:creator ?erdoes .
    ?doc dc:creator ?author .
    ?doc2 dc:creator ?author .
    ?doc2 dc:creator ?author2 .
    ?author2 foaf:name ?name
    FILTER (?author != ?erdoes && ?doc2 != ?doc && ?author2 != ?erdoes && ?author2 != ?author)
  } UNION {
    ?doc dc:creator ?erdoes .
    ?doc dc:creator ?author .
    ?author foaf:name ?name
    FILTER (?author != ?erdoes)
  }
}`,
	},
	{
		ID:          "q12c",
		Description: "ASK whether John Q. Public is in the database (always no).",
		Operators:   []string{},
		DataAccess:  []string{"URIS"},
		Text:        `ASK { person:John_Q_Public rdf:type foaf:Person }`,
	},
}
