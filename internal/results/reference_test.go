package results

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"sp2bench/internal/rdf"
)

// The reference writers are the straightforward serializers the
// streaming writers replaced: encoding/json over the jsonDoc structs,
// xml.EscapeText per value, strings.Builder documents, and a frozen copy
// of the N-Triples term encoder. They are the oracle the writers must
// match byte for byte.

// WriteReference serializes r in format f with the reference writer.
// It is exported for the external test package.
func WriteReference(w io.Writer, r *Result, f Format) error {
	switch f {
	case JSON:
		return refJSON(w, r)
	case XML:
		return refXML(w, r)
	case CSV:
		return refCSV(w, r)
	case TSV:
		return refTSV(w, r)
	case Table:
		return refTable(w, r)
	default:
		return fmt.Errorf("results: unknown format %d", f)
	}
}

// AllFormats lists every SELECT/ASK format, for the external tests.
var AllFormats = []Format{JSON, XML, CSV, TSV, Table}

func refJSON(w io.Writer, r *Result) error {
	doc := jsonDoc{}
	if r.IsAsk() {
		doc.Boolean = r.Boolean
	} else {
		doc.Head.Vars = r.Vars
		bindings := make([]map[string]jsonTerm, 0, len(r.Rows))
		for _, row := range r.Rows {
			b := make(map[string]jsonTerm, len(row))
			for i, t := range row {
				if i >= len(r.Vars) || t.IsZero() {
					continue // unbound cells are simply absent
				}
				b[r.Vars[i]] = refJSONTerm(t)
			}
			bindings = append(bindings, b)
		}
		doc.Results = &jsonResults{Bindings: bindings}
	}
	return json.NewEncoder(w).Encode(&doc)
}

func refJSONTerm(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.KindIRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.KindBlank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
}

func refXML(w io.Writer, r *Result) error {
	var b strings.Builder
	b.WriteString(xml.Header)
	b.WriteString(`<sparql xmlns="http://www.w3.org/2005/sparql-results#">` + "\n")
	b.WriteString("  <head>\n")
	for _, v := range r.Vars {
		b.WriteString(`    <variable name="`)
		refXMLEscape(&b, v)
		b.WriteString("\"/>\n")
	}
	b.WriteString("  </head>\n")
	if r.IsAsk() {
		fmt.Fprintf(&b, "  <boolean>%t</boolean>\n", *r.Boolean)
	} else {
		b.WriteString("  <results>\n")
		for _, row := range r.Rows {
			b.WriteString("    <result>\n")
			for i, t := range row {
				if i >= len(r.Vars) || t.IsZero() {
					continue
				}
				b.WriteString(`      <binding name="`)
				refXMLEscape(&b, r.Vars[i])
				b.WriteString(`">`)
				refXMLTerm(&b, t)
				b.WriteString("</binding>\n")
			}
			b.WriteString("    </result>\n")
		}
		b.WriteString("  </results>\n")
	}
	b.WriteString("</sparql>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func refXMLTerm(b *strings.Builder, t rdf.Term) {
	switch t.Kind {
	case rdf.KindIRI:
		b.WriteString("<uri>")
		refXMLEscape(b, t.Value)
		b.WriteString("</uri>")
	case rdf.KindBlank:
		b.WriteString("<bnode>")
		refXMLEscape(b, t.Value)
		b.WriteString("</bnode>")
	default:
		b.WriteString("<literal")
		if t.Datatype != "" {
			b.WriteString(` datatype="`)
			refXMLEscape(b, t.Datatype)
			b.WriteString(`"`)
		} else if t.Lang != "" {
			b.WriteString(` xml:lang="`)
			refXMLEscape(b, t.Lang)
			b.WriteString(`"`)
		}
		b.WriteString(">")
		refXMLEscape(b, t.Value)
		b.WriteString("</literal>")
	}
}

func refXMLEscape(b *strings.Builder, s string) {
	// xml.EscapeText cannot fail on a strings.Builder.
	_ = xml.EscapeText(b, []byte(s))
}

func refCSV(w io.Writer, r *Result) error {
	var b strings.Builder
	if r.IsAsk() {
		refBool(&b, *r.Boolean)
		_, err := io.WriteString(w, b.String())
		return err
	}
	for i, v := range r.Vars {
		if i > 0 {
			b.WriteByte(',')
		}
		refCSVField(&b, v)
	}
	b.WriteString("\r\n")
	for _, row := range r.Rows {
		for i := range r.Vars {
			if i > 0 {
				b.WriteByte(',')
			}
			if i < len(row) && !row[i].IsZero() {
				refCSVField(&b, refCSVValue(row[i]))
			}
		}
		b.WriteString("\r\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func refCSVValue(t rdf.Term) string {
	if t.Kind == rdf.KindBlank {
		return "_:" + t.Value
	}
	return t.Value
}

func refCSVField(b *strings.Builder, s string) {
	if !strings.ContainsAny(s, ",\"\n\r") {
		b.WriteString(s)
		return
	}
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b.WriteString(`""`)
			continue
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
}

func refTSV(w io.Writer, r *Result) error {
	var b strings.Builder
	if r.IsAsk() {
		refBool(&b, *r.Boolean)
		_, err := io.WriteString(w, b.String())
		return err
	}
	for i, v := range r.Vars {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteByte('?')
		b.WriteString(v)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for i := range r.Vars {
			if i > 0 {
				b.WriteByte('\t')
			}
			if i < len(row) && !row[i].IsZero() {
				refNT(&b, row[i])
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func refBool(b *strings.Builder, v bool) {
	if v {
		b.WriteString("true\n")
	} else {
		b.WriteString("false\n")
	}
}

func refTable(w io.Writer, r *Result) error {
	if r.IsAsk() {
		if *r.Boolean {
			_, err := io.WriteString(w, "yes\n")
			return err
		}
		_, err := io.WriteString(w, "no\n")
		return err
	}
	var b strings.Builder
	b.WriteString(strings.Join(r.Vars, "\t"))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for j, t := range row {
			if j > 0 {
				b.WriteByte('\t')
			}
			if t.IsZero() {
				b.WriteString("(unbound)")
			} else {
				refNT(&b, t)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// refNT is the N-Triples term encoder as it stood before rdf.AppendNT.
func refNT(b *strings.Builder, t rdf.Term) {
	switch t.Kind {
	case rdf.KindIRI:
		b.WriteByte('<')
		b.WriteString(t.Value)
		b.WriteByte('>')
	case rdf.KindBlank:
		b.WriteString("_:")
		b.WriteString(t.Value)
	case rdf.KindLiteral:
		b.WriteByte('"')
		for i := 0; i < len(t.Value); i++ {
			switch c := t.Value[i]; c {
			case '"':
				b.WriteString(`\"`)
			case '\\':
				b.WriteString(`\\`)
			case '\n':
				b.WriteString(`\n`)
			case '\r':
				b.WriteString(`\r`)
			case '\t':
				b.WriteString(`\t`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
		switch {
		case t.Datatype != "":
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		case t.Lang != "":
			b.WriteByte('@')
			b.WriteString(t.Lang)
		}
	default:
		b.WriteString("<invalid>")
	}
}
