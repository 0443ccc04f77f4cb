package results

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sp2bench/internal/rdf"
)

// hostileValues are strings every format must escape or pass through
// exactly as its library routine does.
func hostileValues() []string {
	ctrl := make([]byte, 0x20)
	for i := range ctrl {
		ctrl[i] = byte(i)
	}
	return []string{
		"",
		"plain ascii",
		`<>&"'\`,
		"AT&T", "x<y", "y>x", `say "hi"`, "it's", `back\slash`, "a,b",
		string(ctrl),
		"line\u2028para\u2029end",
		"bad \xff utf8 \xc3",
		"caf\u00e9 \u65e5\u672c \U0001F600",
		"a,b\r\nc",
		"]]> </literal> &amp;",
		"\x7f",
	}
}

// hostileCases are the results the writers must render byte for byte
// like the reference: ASK, empty, zero-variable, duplicate-variable and
// ragged shapes, and a table of every term kind over hostileValues.
func hostileCases() map[string]*Result {
	vars := []string{"s", "b", "lit", "typed", "lang", "x<&>\u00e9"}
	var rows [][]rdf.Term
	for _, v := range hostileValues() {
		rows = append(rows, []rdf.Term{
			rdf.IRI(v), rdf.Blank(v), rdf.Literal(v),
			rdf.TypedLiteral(v, "http://example.org/dt?a=1&b=<"+v+">"),
			rdf.LangLiteral(v, "en-"+v),
			{},
		})
		rows = append(rows, []rdf.Term{{}, {}, rdf.String(v), rdf.Integer(len(v)), {}, rdf.IRI("http://example.org/" + v)})
	}
	return map[string]*Result{
		"ask-true":        Ask(true),
		"ask-false":       Ask(false),
		"sample":          sampleResult(),
		"hostile":         Select(vars, rows),
		"no-rows":         Select([]string{"a", "b"}, nil),
		"no-vars":         Select(nil, [][]rdf.Term{{}, {}}),
		"no-vars-no-rows": Select(nil, nil),
		"duplicate-vars": Select([]string{"a", "a", "b"}, [][]rdf.Term{
			{rdf.IRI("u1"), rdf.IRI("u2"), rdf.Literal("x")},
			{rdf.IRI("u1"), {}, {}},
			{{}, rdf.Literal("y"), rdf.Blank("z")},
		}),
		"ragged": Select([]string{"a", "b"}, [][]rdf.Term{
			{rdf.IRI("short")},
			{rdf.IRI("long"), rdf.Literal("b"), rdf.Literal("beyond the projection")},
			nil,
		}),
		"odd-kind": Select([]string{"a"}, [][]rdf.Term{{{Kind: 9, Value: "v", Lang: "en"}}}),
	}
}

// assertMatchesReference writes r in every format with both the
// writer and the reference and fails on the first differing byte.
func assertMatchesReference(t *testing.T, name string, r *Result) {
	t.Helper()
	for _, f := range AllFormats {
		var got, want bytes.Buffer
		if err := r.Write(&got, f); err != nil {
			t.Fatalf("%s/%s: %v", name, f, err)
		}
		if err := WriteReference(&want, r, f); err != nil {
			t.Fatalf("%s/%s reference: %v", name, f, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			i := 0
			for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
				i++
			}
			t.Fatalf("%s/%s differs from the reference at byte %d:\n got %q\nwant %q",
				name, f, i, clip(got.Bytes(), i), clip(want.Bytes(), i))
		}
	}
}

func clip(b []byte, at int) []byte {
	lo, hi := max(0, at-40), min(len(b), at+40)
	return b[lo:hi]
}

func TestWritersMatchReference(t *testing.T) {
	for name, r := range hostileCases() {
		assertMatchesReference(t, name, r)
	}
	// One cell larger than the pooled-buffer limit, needing escapes
	// throughout: the writer must not split or lose it.
	huge := Select([]string{"x"}, [][]rdf.Term{
		{rdf.Literal(strings.Repeat(`<a&"b">`+"\n", 1<<17))},
		{rdf.IRI("http://example.org/after")},
	})
	assertMatchesReference(t, "huge-cell", huge)
	// Many rows, so every writer flushes several times mid-document.
	assertMatchesReference(t, "many-rows", q4Shaped(20_000))
}

// q4Shaped is a Q4-like result: two xsd:string author names per row.
func q4Shaped(n int) *Result {
	rows := make([][]rdf.Term, n)
	for i := range rows {
		rows[i] = []rdf.Term{
			rdf.String(fmt.Sprintf("Adamanta Schaaf%d", i%977)),
			rdf.String(fmt.Sprintf("Dell Kosel%d", i%1009)),
		}
	}
	return Select([]string{"name1", "name2"}, rows)
}

// fuzzResult decodes fuzz input into a SELECT result. vars is a
// space-separated variable list ("" for none); cells is a sequence of
// records — kind byte, length byte, value, and for typed and language
// literals a second length byte and the datatype or tag — filling rows
// of len(vars) cells (one cell per row without variables); the last
// row may be short.
func fuzzResult(vars string, cells []byte) *Result {
	var names []string
	if vars != "" {
		names = strings.Split(vars, " ")
	}
	width := max(1, len(names))
	var rows [][]rdf.Term
	var row []rdf.Term
	for len(cells) > 0 {
		kind := cells[0] % 6
		var value, extra string
		value, cells = fuzzField(cells[1:])
		var t rdf.Term
		switch kind {
		case 1:
			t = rdf.IRI(value)
		case 2:
			t = rdf.Blank(value)
		case 3:
			t = rdf.Literal(value)
		case 4:
			extra, cells = fuzzField(cells)
			t = rdf.TypedLiteral(value, extra)
		case 5:
			extra, cells = fuzzField(cells)
			t = rdf.LangLiteral(value, extra)
		}
		row = append(row, t)
		if len(row) == width {
			rows = append(rows, row)
			row = nil
		}
	}
	if row != nil {
		rows = append(rows, row)
	}
	return Select(names, rows)
}

func fuzzField(b []byte) (string, []byte) {
	if len(b) == 0 {
		return "", nil
	}
	n := min(int(b[0]), len(b)-1)
	return string(b[1 : 1+n]), b[1+n:]
}

// fuzzArgs encodes a SELECT result as fuzzResult's input (values are
// cut to 255 bytes).
func fuzzArgs(r *Result) (string, []byte) {
	var cells []byte
	field := func(s string) {
		s = s[:min(len(s), 255)]
		cells = append(cells, byte(len(s)))
		cells = append(cells, s...)
	}
	for _, row := range r.Rows {
		for _, t := range row {
			switch {
			case t.IsZero():
				cells = append(cells, 0)
				field("")
			case t.Kind == rdf.KindIRI:
				cells = append(cells, 1)
				field(t.Value)
			case t.Kind == rdf.KindBlank:
				cells = append(cells, 2)
				field(t.Value)
			case t.Datatype != "":
				cells = append(cells, 4)
				field(t.Value)
				field(t.Datatype)
			case t.Lang != "":
				cells = append(cells, 5)
				field(t.Value)
				field(t.Lang)
			default:
				cells = append(cells, 3)
				field(t.Value)
			}
		}
	}
	return strings.Join(r.Vars, " "), cells
}

func TestFuzzArgsRoundTrip(t *testing.T) {
	want := hostileCases()["hostile"]
	got := fuzzResult(fuzzArgs(want))
	if fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("fuzz encoding does not round-trip the hostile table:\n got %v\nwant %v", got.Rows, want.Rows)
	}
}

func FuzzWriters(f *testing.F) {
	for _, r := range hostileCases() {
		if !r.IsAsk() {
			vars, cells := fuzzArgs(r)
			f.Add(vars, cells)
		}
	}
	f.Fuzz(func(t *testing.T, vars string, cells []byte) {
		assertMatchesReference(t, "fuzz", fuzzResult(vars, cells))
	})
}

// TestWritersConcurrent shares the encoder pool between goroutines
// writing different results; run it under -race.
func TestWritersConcurrent(t *testing.T) {
	cases := []*Result{q4Shaped(3000), hostileCases()["hostile"], Ask(true), sampleResult()}
	done := make(chan error)
	for g := 0; g < 8; g++ {
		go func(g int) {
			r := cases[g%len(cases)]
			for i := 0; i < 20; i++ {
				f := AllFormats[(g+i)%len(AllFormats)]
				var got, want bytes.Buffer
				if err := r.Write(&got, f); err != nil {
					done <- err
					return
				}
				if err := WriteReference(&want, r, f); err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					done <- fmt.Errorf("goroutine %d: %s output differs from the reference", g, f)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

var errFull = errors.New("disk full")

// failingWriter accepts budget bytes, then fails every call, counting
// the calls made after the first failure.
type failingWriter struct {
	budget    int
	failed    bool
	lateCalls int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.lateCalls++
		return 0, errFull
	}
	if len(p) <= w.budget {
		w.budget -= len(p)
		return len(p), nil
	}
	n := w.budget
	w.budget, w.failed = 0, true
	return n, errFull
}

func TestWritersStopAtFirstWriteError(t *testing.T) {
	big := q4Shaped(20_000) // several flushes in every format
	for _, f := range AllFormats {
		for _, budget := range []int{0, 100 << 10} {
			w := &failingWriter{budget: budget}
			if err := big.Write(w, f); !errors.Is(err, errFull) {
				t.Errorf("%s, budget %d: err = %v, want %v", f, budget, err, errFull)
			}
			if !w.failed || w.lateCalls != 0 {
				t.Errorf("%s, budget %d: failed=%v, %d Write calls after the failure",
					f, budget, w.failed, w.lateCalls)
			}
		}
		w := &failingWriter{}
		if err := Ask(true).Write(w, f); !errors.Is(err, errFull) {
			t.Errorf("%s ASK: err = %v, want %v", f, err, errFull)
		}
	}
}
