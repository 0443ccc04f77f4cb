package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		val  string
		dt   string
	}{
		{"iri", IRI("http://example.org/x"), KindIRI, "http://example.org/x", ""},
		{"blank", Blank("b1"), KindBlank, "b1", ""},
		{"plain literal", Literal("hello"), KindLiteral, "hello", ""},
		{"typed literal", TypedLiteral("5", XSDInteger), KindLiteral, "5", XSDInteger},
		{"string helper", String("x"), KindLiteral, "x", XSDString},
		{"integer helper", Integer(42), KindLiteral, "42", XSDInteger},
		{"negative integer", Integer(-7), KindLiteral, "-7", XSDInteger},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.term.Kind != tc.kind {
				t.Errorf("kind = %v, want %v", tc.term.Kind, tc.kind)
			}
			if tc.term.Value != tc.val {
				t.Errorf("value = %q, want %q", tc.term.Value, tc.val)
			}
			if tc.term.Datatype != tc.dt {
				t.Errorf("datatype = %q, want %q", tc.term.Datatype, tc.dt)
			}
		})
	}
}

func TestTermPredicates(t *testing.T) {
	if !IRI("x").IsIRI() || IRI("x").IsBlank() || IRI("x").IsLiteral() {
		t.Error("IRI predicates wrong")
	}
	if !Blank("x").IsBlank() || Blank("x").IsIRI() {
		t.Error("Blank predicates wrong")
	}
	if !Literal("x").IsLiteral() || Literal("x").IsIRI() {
		t.Error("Literal predicates wrong")
	}
	if !(Term{}).IsZero() || IRI("x").IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestTermEqual(t *testing.T) {
	if !IRI("a").Equal(IRI("a")) {
		t.Error("identical IRIs must be equal")
	}
	if IRI("a").Equal(Blank("a")) {
		t.Error("IRI and blank node with same value must differ")
	}
	if Literal("5").Equal(TypedLiteral("5", XSDInteger)) {
		t.Error("plain and typed literal must differ")
	}
	if !TypedLiteral("x", XSDString).Equal(TypedLiteral("x", XSDString)) {
		t.Error("identical typed literals must be equal")
	}
}

func TestTermCompareKindOrder(t *testing.T) {
	// SPARQL ordering: blank < IRI < literal.
	b, i, l := Blank("z"), IRI("a"), Literal("a")
	if b.Compare(i) >= 0 {
		t.Error("blank must sort before IRI")
	}
	if i.Compare(l) >= 0 {
		t.Error("IRI must sort before literal")
	}
	if b.Compare(l) >= 0 {
		t.Error("blank must sort before literal")
	}
}

func TestTermCompareNumeric(t *testing.T) {
	a := TypedLiteral("9", XSDInteger)
	b := TypedLiteral("10", XSDInteger)
	if a.Compare(b) >= 0 {
		t.Error("9 must sort before 10 numerically, not lexicographically")
	}
	c := TypedLiteral("2.5", XSDDecimal)
	if c.Compare(b) >= 0 {
		t.Error("2.5 < 10")
	}
	// equal numeric value, different lexical form: deterministic tiebreak
	d := TypedLiteral("1.0", XSDDecimal)
	e := TypedLiteral("1", XSDInteger)
	if d.Compare(e) == 0 && d != e {
		t.Error("distinct terms should not compare equal")
	}
}

func TestTermCompareStrings(t *testing.T) {
	a, b := String("alpha"), String("beta")
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Error("string literal comparison broken")
	}
}

// TestTermCompareIsTotal: numeric literals sort before every other
// literal, so a column mixing them still has one order. Compared
// lexically across the two, "10" < "5x" < "9" < "10" would be a cycle,
// and no sort or top-k heap could honour it.
func TestTermCompareIsTotal(t *testing.T) {
	terms := []Term{
		TypedLiteral("10", XSDInteger), Literal("9"), Literal("5x"), Literal(""),
		String("abc"), String("10"), TypedLiteral("1.5", XSDDecimal), Literal("-"),
		TypedLiteral("01", XSDInteger), Literal("1"), LangLiteral("a", "en"),
		IRI("urn:a"), Blank("b"),
	}
	for _, a := range terms {
		for _, b := range terms {
			if sign(a.Compare(b)) != -sign(b.Compare(a)) {
				t.Errorf("%v vs %v: not antisymmetric", a, b)
			}
			if (a.Compare(b) == 0) != (a == b) {
				t.Errorf("%v vs %v: Compare 0 must mean the same term", a, b)
			}
			for _, c := range terms {
				if a.Compare(b) < 0 && b.Compare(c) < 0 && a.Compare(c) >= 0 {
					t.Errorf("%v < %v < %v but not %v < %v", a, b, c, a, c)
				}
			}
		}
	}
	if TypedLiteral("10", XSDInteger).Compare(Literal("5x")) >= 0 {
		t.Error("a numeric literal must sort before a non-numeric one")
	}
	if a, b := Literal("9").SortKey(), Literal("10").SortKey(); a.Compare(b) >= 0 || (SortKey{}).Compare(a) >= 0 {
		t.Error("SortKey must order like Compare, the zero key first")
	}
}

func TestTermCompareProperties(t *testing.T) {
	// Antisymmetry and reflexivity over arbitrary term pairs.
	gen := func(kind uint8, v string, dt uint8) Term {
		switch kind % 3 {
		case 0:
			return IRI("http://x/" + v)
		case 1:
			return Blank("b" + v)
		default:
			dts := []string{"", XSDString, XSDInteger}
			return TypedLiteral(v, dts[dt%3])
		}
	}
	antisym := func(k1 uint8, v1 string, d1 uint8, k2 uint8, v2 string, d2 uint8) bool {
		a, b := gen(k1, v1, d1), gen(k2, v2, d2)
		if a.Compare(a) != 0 || b.Compare(b) != 0 {
			return false
		}
		return sign(a.Compare(b)) == -sign(b.Compare(a))
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestNumeric(t *testing.T) {
	tests := []struct {
		term Term
		want float64
		ok   bool
	}{
		{Integer(42), 42, true},
		{TypedLiteral("-3", XSDInteger), -3, true},
		{TypedLiteral("2.5", XSDDecimal), 2.5, true},
		{TypedLiteral("+7", XSDInteger), 7, true},
		{Literal("19"), 19, true},
		{String("19"), 0, false}, // xsd:string is not numeric
		{Literal("abc"), 0, false},
		{Literal(""), 0, false},
		{Literal("1.2.3"), 0, false},
		{Literal("-"), 0, false},
		{Literal("1e5"), 0, false}, // exponents unsupported by design
		{IRI("42"), 0, false},
	}
	for _, tc := range tests {
		got, ok := tc.term.Numeric()
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("Numeric(%v) = (%v, %v), want (%v, %v)", tc.term, got, ok, tc.want, tc.ok)
		}
	}
}

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{IRI("http://x/y"), "<http://x/y>"},
		{Blank("b1"), "_:b1"},
		{Literal("hi"), `"hi"`},
		{String("hi"), `"hi"^^<` + XSDString + `>`},
		{Literal(`say "hi"`), `"say \"hi\""`},
		{Literal("a\nb\tc\\d"), `"a\nb\tc\\d"`},
		{Literal("\r\"x\"\r"), `"\r\"x\"\r"`},
		{LangLiteral("hallo", "de"), `"hallo"@de`},
		{Term{}, "<invalid>"},
	}
	for _, tc := range tests {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String() = %s, want %s", got, tc.want)
		}
		if got := string(AppendNT([]byte("prefix "), tc.term)); got != "prefix "+tc.want {
			t.Errorf("AppendNT = %s, want prefix %s", got, tc.want)
		}
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(IRI("s"), IRI("p"), Literal("o"))
	want := `<s> <p> "o" .`
	if got := tr.String(); got != want {
		t.Errorf("Triple.String() = %q, want %q", got, want)
	}
}

func TestBagMember(t *testing.T) {
	tests := []struct {
		n    int
		want string
	}{
		{1, NSRDF + "_1"},
		{9, NSRDF + "_9"},
		{10, NSRDF + "_10"},
		{123, NSRDF + "_123"},
	}
	for _, tc := range tests {
		if got := BagMember(tc.n); got != tc.want {
			t.Errorf("BagMember(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestVocabularyConsistency(t *testing.T) {
	// Every document class must live in the bench namespace and be listed
	// exactly once.
	seen := map[string]bool{}
	for _, c := range DocumentClasses {
		if !strings.HasPrefix(c, NSBench) {
			t.Errorf("document class %s outside bench namespace", c)
		}
		if seen[c] {
			t.Errorf("document class %s listed twice", c)
		}
		seen[c] = true
	}
	if len(DocumentClasses) != 9 {
		t.Errorf("expected 9 document classes (8 DTD classes + Journal), got %d", len(DocumentClasses))
	}
	// The query prologue must cover every namespace the queries use.
	for _, pfx := range []string{"rdf", "rdfs", "xsd", "foaf", "dc", "dcterms", "swrc", "bench", "person"} {
		if _, ok := Prefixes[pfx]; !ok {
			t.Errorf("prefix %q missing from Prefixes", pfx)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[TermKind]string{
		KindIRI: "IRI", KindBlank: "BlankNode", KindLiteral: "Literal", KindInvalid: "Invalid",
	} {
		if got := k.String(); got != want {
			t.Errorf("TermKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
