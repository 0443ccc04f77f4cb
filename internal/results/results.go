// Package results implements the W3C SPARQL query result formats shared
// by the protocol server, the endpoint client and the CLI: writers for
// the SPARQL Query Results JSON and XML formats, the CSV/TSV results
// formats and a human-readable table (SELECT/ASK), an N-Triples writer
// for CONSTRUCT/DESCRIBE graphs, and a parser for the JSON format so
// results can round-trip over the wire. The SELECT/ASK writers stream
// through one pooled append buffer (encode.go).
package results

import (
	"fmt"
	"io"
	"strings"

	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
)

// Result is the format-neutral query outcome the writers serialize and
// the JSON parser reconstructs: either a SELECT binding table or an ASK
// verdict.
type Result struct {
	// Vars is the projection in SELECT order (nil for ASK results).
	Vars []string
	// Rows holds one term slice per solution, aligned with Vars. Zero
	// terms are unbound cells.
	Rows [][]rdf.Term
	// Boolean is non-nil for ASK results and holds the verdict.
	Boolean *bool
}

// Select returns a SELECT result over the given binding table.
func Select(vars []string, rows [][]rdf.Term) *Result {
	return &Result{Vars: vars, Rows: rows}
}

// Ask returns an ASK result with the given verdict.
func Ask(v bool) *Result {
	return &Result{Boolean: &v}
}

// FromEngine converts a materialized engine result.
func FromEngine(res *engine.Result) *Result {
	if res.Form == sparql.FormAsk {
		return Ask(res.Ask)
	}
	return Select(res.Vars, res.Rows)
}

// IsAsk reports whether the result is an ASK verdict.
func (r *Result) IsAsk() bool { return r.Boolean != nil }

// Len returns the number of solutions (0 or 1 for ASK).
func (r *Result) Len() int {
	if r.IsAsk() {
		if *r.Boolean {
			return 1
		}
		return 0
	}
	return len(r.Rows)
}

// Format identifies one of the supported SELECT/ASK serializations.
type Format int

const (
	// JSON is the SPARQL 1.1 Query Results JSON Format (the only format
	// the package can also parse).
	JSON Format = iota
	// XML is the SPARQL Query Results XML Format.
	XML
	// CSV is the SPARQL 1.1 CSV results format (plain lexical forms).
	CSV
	// TSV is the SPARQL 1.1 TSV results format (N-Triples term syntax).
	TSV
	// Table is a human-readable tab-separated table, not a standard
	// interchange format.
	Table
)

// ParseFormat resolves a format name as used by CLI flags.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "json":
		return JSON, nil
	case "xml":
		return XML, nil
	case "csv":
		return CSV, nil
	case "tsv":
		return TSV, nil
	case "table":
		return Table, nil
	default:
		return 0, fmt.Errorf("results: unknown format %q (want json, xml, csv, tsv or table)", s)
	}
}

func (f Format) String() string {
	switch f {
	case JSON:
		return "json"
	case XML:
		return "xml"
	case CSV:
		return "csv"
	case TSV:
		return "tsv"
	default:
		return "table"
	}
}

// ContentType returns the media type the format is served under.
func (f Format) ContentType() string {
	switch f {
	case JSON:
		return "application/sparql-results+json"
	case XML:
		return "application/sparql-results+xml"
	case CSV:
		return "text/csv; charset=utf-8"
	case TSV:
		return "text/tab-separated-values; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// NTriplesContentType is the media type of CONSTRUCT/DESCRIBE responses.
const NTriplesContentType = "application/n-triples"

// Write serializes the result in the given format.
func (r *Result) Write(w io.Writer, f Format) error {
	switch f {
	case JSON:
		return r.WriteJSON(w)
	case XML:
		return r.WriteXML(w)
	case CSV:
		return r.WriteCSV(w)
	case TSV:
		return r.WriteTSV(w)
	case Table:
		return r.WriteTable(w)
	default:
		return fmt.Errorf("results: unknown format %d", f)
	}
}

// WriteTable writes the human-readable form: a header of variable names,
// one tab-separated row per solution with "(unbound)" markers, or
// "yes"/"no" for ASK.
func (r *Result) WriteTable(w io.Writer) error {
	e := newEncoder(w)
	if r.IsAsk() {
		if *r.Boolean {
			e.str("yes\n")
		} else {
			e.str("no\n")
		}
		return e.close()
	}
	for i, v := range r.Vars {
		if i > 0 {
			e.str("\t")
		}
		e.str(v)
	}
	e.str("\n")
	for _, row := range r.Rows {
		for j, t := range row {
			if j > 0 {
				e.str("\t")
			}
			if t.IsZero() {
				e.str("(unbound)")
			} else {
				e.buf = rdf.AppendNT(e.buf, t)
			}
		}
		e.str("\n")
		if !e.endRow() {
			return e.close()
		}
	}
	return e.close()
}

// WriteGraph serializes a CONSTRUCT/DESCRIBE graph as N-Triples.
func WriteGraph(w io.Writer, g []rdf.Triple) error {
	nw := rdf.NewWriter(w)
	for _, t := range g {
		if err := nw.WriteTriple(t); err != nil {
			return err
		}
	}
	return nw.Flush()
}
