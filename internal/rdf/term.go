// Package rdf implements the RDF 1.0 data model used throughout SP2Bench:
// IRIs, blank nodes, typed literals, triples, the vocabularies of the
// DBLP scheme (Figure 3(a) of the paper), and a streaming N-Triples codec.
//
// The package is deliberately free of storage or query concerns; it is the
// substrate every other package builds on.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three RDF node types plus the zero value.
type TermKind uint8

const (
	// KindInvalid is the zero TermKind; no valid term has it.
	KindInvalid TermKind = iota
	// KindIRI identifies IRI reference terms.
	KindIRI
	// KindBlank identifies blank nodes.
	KindBlank
	// KindLiteral identifies (possibly typed) literal terms.
	KindLiteral
)

// String returns the conventional name of the kind.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindBlank:
		return "BlankNode"
	case KindLiteral:
		return "Literal"
	default:
		return "Invalid"
	}
}

// Term is an RDF term: an IRI, a blank node, or a literal.
//
// A Term is a small value type and is intended to be copied freely. For
// IRIs, Value holds the IRI string. For blank nodes, Value holds the label
// (without the "_:" prefix). For literals, Value holds the lexical form,
// Datatype optionally holds the datatype IRI ("" means a plain literal),
// and Lang optionally holds a language tag. A literal carries at most one
// of Datatype and Lang, mirroring the RDF abstract syntax.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// Blank returns a blank-node term with the given label (no "_:" prefix).
func Blank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// Literal returns a plain (untyped) literal term.
func Literal(lex string) Term { return Term{Kind: KindLiteral, Value: lex} }

// TypedLiteral returns a literal with an explicit datatype IRI.
func TypedLiteral(lex, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lex, Datatype: datatype}
}

// LangLiteral returns a language-tagged literal (e.g. "Journal"@en).
func LangLiteral(lex, lang string) Term {
	return Term{Kind: KindLiteral, Value: lex, Lang: lang}
}

// String returns a typed string literal (xsd:string), the literal form the
// SP2Bench data set uses for all text values.
func String(lex string) Term { return TypedLiteral(lex, XSDString) }

// Integer returns an xsd:integer literal for v.
func Integer(v int) Term { return TypedLiteral(fmt.Sprintf("%d", v), XSDInteger) }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsZero reports whether the term is the zero value (no term at all).
func (t Term) IsZero() bool { return t.Kind == KindInvalid }

// Equal reports RDF term equality: same kind, same value and, for
// literals, the same datatype and language tag.
func (t Term) Equal(o Term) bool { return t == o }

// Compare orders terms for ORDER BY. The order follows the SPARQL 1.0
// ordering: blank nodes < IRIs < literals, lexicographic inside each
// kind, except that numeric literals compare by value and sort before
// every other literal. SPARQL leaves the relative order of numeric and
// non-numeric literals undefined; comparing such a pair lexically would
// make the order cyclic ("10" < "5x" < "9" < "10"), and a sort or a
// top-k heap over a cyclic order has no well-defined result.
func (t Term) Compare(o Term) int { return t.SortKey().Compare(o.SortKey()) }

// SortKey is a term's position in the Compare order with its numeric
// value parsed once, for callers that compare the same term many times
// (sorting, top-k heaps). The zero SortKey sorts before every term, as
// an unbound value does in ORDER BY.
type SortKey struct {
	rank uint8 // 0 none, 1 blank, 2 IRI, 3 numeric literal, 4 other literal
	num  float64
	term Term
}

// SortKey returns the term's ordering key.
func (t Term) SortKey() SortKey {
	k := SortKey{term: t}
	switch t.Kind {
	case KindBlank:
		k.rank = 1
	case KindIRI:
		k.rank = 2
	case KindLiteral:
		k.rank = 4
		if n, ok := t.Numeric(); ok {
			k.rank, k.num = 3, n
		}
	}
	return k
}

// Compare orders two keys exactly as Compare orders their terms. Equal
// numeric values fall through to a lexical tiebreak, so only identical
// terms compare equal.
func (k SortKey) Compare(o SortKey) int {
	if k.rank != o.rank {
		return int(k.rank) - int(o.rank)
	}
	if k.rank == 3 {
		switch {
		case k.num < o.num:
			return -1
		case k.num > o.num:
			return 1
		}
	}
	if c := strings.Compare(k.term.Value, o.term.Value); c != 0 {
		return c
	}
	if c := strings.Compare(k.term.Datatype, o.term.Datatype); c != 0 {
		return c
	}
	return strings.Compare(k.term.Lang, o.term.Lang)
}

// Numeric reports the numeric value of a literal whose datatype is one of
// the XSD numeric types (or whose lexical form parses as a number for
// plain literals). The second result is false when the term has no numeric
// interpretation.
func (t Term) Numeric() (float64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble, XSDFloat, XSDInt, XSDLong, XSDGYear:
		return parseFloat(t.Value)
	case "":
		return parseFloat(t.Value)
	default:
		return 0, false
	}
}

// parseFloat is a small, allocation-free float parser for the integer and
// simple decimal forms the benchmark produces. It intentionally does not
// support exponents or special values; callers fall back to string
// comparison when it fails.
func parseFloat(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	neg := false
	i := 0
	switch s[0] {
	case '-':
		neg, i = true, 1
	case '+':
		i = 1
	}
	if i >= len(s) {
		return 0, false
	}
	var whole float64
	sawDigit := false
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		whole = whole*10 + float64(s[i]-'0')
		sawDigit = true
	}
	if i < len(s) && s[i] == '.' {
		i++
		frac, scale := 0.0, 1.0
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			frac = frac*10 + float64(s[i]-'0')
			scale *= 10
			sawDigit = true
		}
		whole += frac / scale
	}
	if !sawDigit || i != len(s) {
		return 0, false
	}
	if neg {
		whole = -whole
	}
	return whole, true
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var buf [64]byte
	return string(AppendNT(buf[:0], t))
}

// AppendNT appends the N-Triples form of t to dst and returns the
// extended slice. It is the one N-Triples term encoder: Term.String,
// Triple.String, Writer and the TSV result writer all use it.
func AppendNT(dst []byte, t Term) []byte {
	switch t.Kind {
	case KindIRI:
		dst = append(dst, '<')
		dst = append(dst, t.Value...)
		return append(dst, '>')
	case KindBlank:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	case KindLiteral:
		dst = append(dst, '"')
		dst = appendEscaped(dst, t.Value)
		dst = append(dst, '"')
		switch {
		case t.Datatype != "":
			dst = append(dst, "^^<"...)
			dst = append(dst, t.Datatype...)
			dst = append(dst, '>')
		case t.Lang != "":
			dst = append(dst, '@')
			dst = append(dst, t.Lang...)
		}
		return dst
	default:
		return append(dst, "<invalid>"...)
	}
}

// appendEscaped appends a literal's lexical form with the five
// N-Triples string escapes, copying the runs between them in bulk.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '"':
			esc = `\"`
		case '\\':
			esc = `\\`
		case '\n':
			esc = `\n`
		case '\r':
			esc = `\r`
		case '\t':
			esc = `\t`
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// Triple is a single RDF statement.
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from its components.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as one N-Triples line (without the newline).
func (t Triple) String() string {
	var buf [128]byte
	return string(t.appendNT(buf[:0]))
}

// appendNT appends the triple as one N-Triples line without the newline.
func (t Triple) appendNT(dst []byte) []byte {
	dst = AppendNT(dst, t.S)
	dst = append(dst, ' ')
	dst = AppendNT(dst, t.P)
	dst = append(dst, ' ')
	dst = AppendNT(dst, t.O)
	return append(dst, " ."...)
}
