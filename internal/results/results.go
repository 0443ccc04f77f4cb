// Package results implements the W3C SPARQL query result formats shared
// by the protocol server, the endpoint client and the CLI: writers for
// the SPARQL Query Results JSON and XML formats, the CSV/TSV results
// formats and a human-readable table (SELECT/ASK), an N-Triples writer
// for CONSTRUCT/DESCRIBE graphs, and a parser for the JSON format so
// results can round-trip over the wire. The SELECT/ASK writers stream
// through one pooled append buffer (encode.go). A SELECT result is
// either a held table (Select, FromEngine) or a row iterator (Stream):
// each format has one row loop that reads both, and over an iterator
// the first bytes leave while the engine is still producing rows.
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
	// iter, set by Stream, supplies the rows in place of Rows.
	iter RowIter
}

// RowIter yields the rows of a SELECT result one at a time: Next
// advances and reports whether there is a row, Row returns it (aligned
// with the result's Vars, zero terms unbound, valid until the next
// Next), and Err reports what ended the iteration early, if anything.
// *engine.Rows is one.
type RowIter interface {
	Next() bool
	Row() []rdf.Term
	Err() error
}

// sliceRows iterates a held binding table.
type sliceRows struct {
	rows [][]rdf.Term
	i    int
}

func (s *sliceRows) Next() bool {
	if s.i == len(s.rows) {
		return false
	}
	s.i++
	return true
}

func (s *sliceRows) Row() []rdf.Term { return s.rows[s.i-1] }
func (s *sliceRows) Err() error      { return nil }

// Select returns a SELECT result over the given binding table.
func Select(vars []string, rows [][]rdf.Term) *Result {
	return &Result{Vars: vars, Rows: rows}
}

// Stream returns a SELECT result whose rows are read from it while the
// result is written, so no row is held beyond the encoder's chunk.
// Writing consumes the iterator: a streamed result is written once. If
// the iterator fails, the write stops without the format's terminator,
// drops the bytes it has not yet handed to the destination, and returns
// the iterator's error; a destination that has received nothing can
// still answer with an error instead.
func Stream(vars []string, it RowIter) *Result {
	return &Result{Vars: vars, iter: it}
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

// Len returns the number of solutions held (0 or 1 for ASK). A streamed
// result holds none; its iterator counts what it yielded.
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
	rows := e.rowsOf(r)
	for rows.Next() {
		for j, t := range rows.Row() {
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
	return e.end(rows, "")
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
