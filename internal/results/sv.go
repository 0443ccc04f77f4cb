package results

import (
	"io"

	"sp2bench/internal/rdf"
)

// The CSV and TSV results formats of SPARQL 1.1
// (https://www.w3.org/TR/sparql11-results-csv-tsv/): CSV carries plain
// lexical forms (lossy but spreadsheet-friendly), TSV carries full
// N-Triples term syntax (lossless). Neither format defines an ASK
// serialization; both writers emit a single "true"/"false" line, the
// de-facto convention of deployed endpoints.

// csvPlain holds the bytes that leave a CSV field unquoted.
var csvPlain = newByteSet(0x00, 0xff, ",\"\n\r")

// WriteCSV serializes the result in the SPARQL 1.1 CSV results format:
// a header of variable names, then one RFC 4180 record per solution
// with raw lexical forms (unbound cells are empty).
func (r *Result) WriteCSV(w io.Writer) error {
	e := newEncoder(w)
	if r.IsAsk() {
		e.bool(*r.Boolean)
		return e.close()
	}
	for i, v := range r.Vars {
		if i > 0 {
			e.str(",")
		}
		e.csvField("", v)
	}
	e.str("\r\n")
	rows := e.rowsOf(r)
	for rows.Next() {
		row := rows.Row()
		for i := range r.Vars {
			if i > 0 {
				e.str(",")
			}
			if i < len(row) && !row[i].IsZero() {
				e.csvTerm(row[i])
			}
		}
		e.str("\r\n")
		if !e.endRow() {
			return e.close()
		}
	}
	return e.end(rows, "")
}

// csvTerm writes a term the way the CSV format prescribes: bare
// lexical forms for IRIs and literals, "_:"-prefixed labels for blank
// nodes.
func (e *encoder) csvTerm(t rdf.Term) {
	if t.Kind == rdf.KindBlank {
		e.csvField("_:", t.Value)
		return
	}
	e.csvField("", t.Value)
}

// csvField writes prefix+s as one field, quoted with doubled quotes
// when it holds a comma, quote or line break (prefix never does).
func (e *encoder) csvField(prefix, s string) {
	if csvPlain.contains(s) {
		e.str(prefix)
		e.str(s)
		return
	}
	e.str(`"`)
	e.str(prefix)
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			e.str(`""`)
			continue
		}
		e.buf = append(e.buf, s[i])
	}
	e.str(`"`)
}

// WriteTSV serializes the result in the SPARQL 1.1 TSV results format:
// a header of "?"-prefixed variable names, then one tab-separated row
// per solution with terms in N-Triples syntax (unbound cells are
// empty).
func (r *Result) WriteTSV(w io.Writer) error {
	e := newEncoder(w)
	if r.IsAsk() {
		e.bool(*r.Boolean)
		return e.close()
	}
	for i, v := range r.Vars {
		if i > 0 {
			e.str("\t")
		}
		e.str("?")
		e.str(v)
	}
	e.str("\n")
	rows := e.rowsOf(r)
	for rows.Next() {
		row := rows.Row()
		for i := range r.Vars {
			if i > 0 {
				e.str("\t")
			}
			if i < len(row) && !row[i].IsZero() {
				e.buf = rdf.AppendNT(e.buf, row[i])
			}
		}
		e.str("\n")
		if !e.endRow() {
			return e.close()
		}
	}
	return e.end(rows, "")
}

func (e *encoder) bool(v bool) {
	if v {
		e.str("true\n")
	} else {
		e.str("false\n")
	}
}
