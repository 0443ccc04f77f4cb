package results

import (
	"bytes"
	"encoding/xml"
	"io"

	"sp2bench/internal/rdf"
)

// xmlSafe holds the bytes xml.EscapeText copies unchanged: printable
// ASCII except the five characters it writes as entities.
var xmlSafe = newByteSet(0x20, 0x7e, `"'&<>`)

// WriteXML serializes the result in the SPARQL Query Results XML Format
// (https://www.w3.org/TR/rdf-sparql-XMLres/).
func (r *Result) WriteXML(w io.Writer) error {
	e := newEncoder(w)
	e.str(xml.Header)
	e.str(`<sparql xmlns="http://www.w3.org/2005/sparql-results#">` + "\n")
	e.str("  <head>\n")
	for _, v := range r.Vars {
		e.str(`    <variable name="`)
		e.xmlText(v)
		e.str("\"/>\n")
	}
	e.str("  </head>\n")
	if r.IsAsk() {
		if *r.Boolean {
			e.str("  <boolean>true</boolean>\n")
		} else {
			e.str("  <boolean>false</boolean>\n")
		}
		e.str("</sparql>\n")
		return e.close()
	}
	// The opening tag of each variable's bindings, escaped once.
	open := make([][]byte, len(r.Vars))
	for i, v := range r.Vars {
		open[i] = append(appendXMLText([]byte(`      <binding name="`), v), `">`...)
	}
	e.str("  <results>\n")
	rows := e.rowsOf(r)
	for rows.Next() {
		e.str("    <result>\n")
		for i, t := range rows.Row() {
			if i >= len(r.Vars) || t.IsZero() {
				continue
			}
			e.buf = append(e.buf, open[i]...)
			e.xmlTerm(t)
			e.str("</binding>\n")
		}
		e.str("    </result>\n")
		if !e.endRow() {
			return e.close()
		}
	}
	return e.end(rows, "  </results>\n</sparql>\n")
}

func (e *encoder) xmlTerm(t rdf.Term) {
	switch t.Kind {
	case rdf.KindIRI:
		e.str("<uri>")
		e.xmlText(t.Value)
		e.str("</uri>")
	case rdf.KindBlank:
		e.str("<bnode>")
		e.xmlText(t.Value)
		e.str("</bnode>")
	default:
		e.str("<literal")
		if t.Datatype != "" {
			e.str(` datatype="`)
			e.xmlText(t.Datatype)
			e.str(`"`)
		} else if t.Lang != "" {
			e.str(` xml:lang="`)
			e.xmlText(t.Lang)
			e.str(`"`)
		}
		e.str(">")
		e.xmlText(t.Value)
		e.str("</literal>")
	}
}

func (e *encoder) xmlText(s string) { e.buf = appendXMLText(e.buf, s) }

// appendXMLText appends s escaped as xml.EscapeText escapes it.
func appendXMLText(dst []byte, s string) []byte {
	if xmlSafe.contains(s) {
		return append(dst, s...)
	}
	b := bytes.NewBuffer(dst) // appends after dst's bytes
	// xml.EscapeText cannot fail on a bytes.Buffer.
	_ = xml.EscapeText(b, []byte(s))
	return b.Bytes()
}
