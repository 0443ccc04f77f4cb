package results

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"sp2bench/internal/rdf"
)

// The wire structures of the SPARQL 1.1 Query Results JSON Format
// (https://www.w3.org/TR/sparql11-results-json/). ParseJSON decodes
// into them; WriteJSON must produce exactly what json.Encoder makes of
// them, which the reference writer in the tests checks byte for byte.

type jsonDoc struct {
	Head    jsonHead     `json:"head"`
	Boolean *bool        `json:"boolean,omitempty"`
	Results *jsonResults `json:"results,omitempty"`
}

type jsonHead struct {
	Vars []string `json:"vars,omitempty"`
}

type jsonResults struct {
	Bindings []map[string]jsonTerm `json:"bindings"`
}

type jsonTerm struct {
	// Type is "uri", "literal", "bnode", or the legacy "typed-literal"
	// some older endpoints emit.
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

// jsonSafe holds the bytes encoding/json copies unchanged with HTML
// escaping on: printable ASCII except the quote, the backslash and <>&.
var jsonSafe = newByteSet(0x20, 0x7e, `"\<>&`)

// WriteJSON serializes the result in the SPARQL 1.1 JSON results format.
// The output is byte for byte what json.Encoder writes for the jsonDoc
// of the result: members in struct order, each binding's variables in
// sorted order, unbound cells absent, and a trailing newline.
func (r *Result) WriteJSON(w io.Writer) error {
	e := newEncoder(w)
	if r.IsAsk() {
		if *r.Boolean {
			e.str(`{"head":{},"boolean":true}` + "\n")
		} else {
			e.str(`{"head":{},"boolean":false}` + "\n")
		}
		return e.close()
	}
	e.str(`{"head":{`)
	if len(r.Vars) > 0 {
		e.str(`"vars":[`)
		for i, v := range r.Vars {
			if i > 0 {
				e.str(",")
			}
			e.jsonString(v)
		}
		e.str("]")
	}
	e.str(`},"results":{"bindings":[`)
	members := jsonMembers(r.Vars)
	rows := e.rowsOf(r)
	for n := 0; rows.Next(); n++ {
		if n > 0 {
			e.str(",")
		}
		row := rows.Row()
		e.str("{")
		first := true
		for i := range members {
			t, ok := members[i].cell(row)
			if !ok {
				continue // unbound cells are simply absent
			}
			if !first {
				e.str(",")
			}
			first = false
			e.buf = append(e.buf, members[i].key...)
			e.jsonTerm(t)
		}
		e.str("}")
		if !e.endRow() {
			return e.close()
		}
	}
	return e.end(rows, "]}}\n")
}

// jsonMember is one member of a binding object: a distinct variable
// name, pre-encoded as `"name":`, and the columns projecting it. A
// binding is a map, so a name projected twice keeps its last bound cell.
type jsonMember struct {
	name string
	key  []byte
	cols []int
}

// jsonMembers returns the binding members in the sorted key order
// encoding/json gives maps.
func jsonMembers(vars []string) []jsonMember {
	slot := make(map[string]int, len(vars))
	var members []jsonMember
	for i, v := range vars {
		k, ok := slot[v]
		if !ok {
			k = len(members)
			slot[v] = k
			members = append(members, jsonMember{name: v, key: append(appendJSONString(nil, v), ':')})
		}
		members[k].cols = append(members[k].cols, i)
	}
	slices.SortFunc(members, func(a, b jsonMember) int { return strings.Compare(a.name, b.name) })
	return members
}

func (m *jsonMember) cell(row []rdf.Term) (rdf.Term, bool) {
	for j := len(m.cols) - 1; j >= 0; j-- {
		if c := m.cols[j]; c < len(row) && !row[c].IsZero() {
			return row[c], true
		}
	}
	return rdf.Term{}, false
}

func (e *encoder) jsonTerm(t rdf.Term) {
	switch t.Kind {
	case rdf.KindIRI:
		e.str(`{"type":"uri","value":`)
		e.jsonString(t.Value)
	case rdf.KindBlank:
		e.str(`{"type":"bnode","value":`)
		e.jsonString(t.Value)
	default:
		e.str(`{"type":"literal","value":`)
		e.jsonString(t.Value)
		if t.Datatype != "" {
			e.str(`,"datatype":`)
			e.jsonString(t.Datatype)
		}
		if t.Lang != "" {
			e.str(`,"xml:lang":`)
			e.jsonString(t.Lang)
		}
	}
	e.str("}")
}

func (e *encoder) jsonString(s string) { e.buf = appendJSONString(e.buf, s) }

// appendJSONString appends s as a JSON string the way encoding/json
// encodes it.
func appendJSONString(dst []byte, s string) []byte {
	if jsonSafe.contains(s) {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	// Marshalling a string cannot fail.
	b, _ := json.Marshal(s)
	return append(dst, b...)
}

// ParseJSON reconstructs a Result from the SPARQL 1.1 JSON results
// format. Bindings naming variables absent from the head are rejected;
// variables absent from a binding become unbound (zero) cells.
func ParseJSON(r io.Reader) (*Result, error) {
	dec := json.NewDecoder(r)
	var doc jsonDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("results: decoding JSON results: %w", err)
	}
	if doc.Boolean != nil {
		return Ask(*doc.Boolean), nil
	}
	if doc.Results == nil {
		return nil, fmt.Errorf("results: JSON document has neither boolean nor results")
	}
	slot := make(map[string]int, len(doc.Head.Vars))
	for i, v := range doc.Head.Vars {
		slot[v] = i
	}
	out := &Result{Vars: doc.Head.Vars}
	if len(doc.Head.Vars) > 0 {
		out.Rows = make([][]rdf.Term, 0, len(doc.Results.Bindings))
	}
	for _, b := range doc.Results.Bindings {
		row := make([]rdf.Term, len(doc.Head.Vars))
		for name, jt := range b {
			i, ok := slot[name]
			if !ok {
				return nil, fmt.Errorf("results: binding for undeclared variable %q", name)
			}
			t, err := decodeJSONTerm(jt)
			if err != nil {
				return nil, err
			}
			row[i] = t
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func decodeJSONTerm(jt jsonTerm) (rdf.Term, error) {
	switch jt.Type {
	case "uri":
		return rdf.IRI(jt.Value), nil
	case "bnode":
		return rdf.Blank(jt.Value), nil
	case "literal", "typed-literal":
		t := rdf.Term{Kind: rdf.KindLiteral, Value: jt.Value, Datatype: jt.Datatype, Lang: jt.Lang}
		return t, nil
	default:
		return rdf.Term{}, fmt.Errorf("results: unknown term type %q", jt.Type)
	}
}
