package main

import (
	"bytes"
	"testing"

	"sp2bench/internal/rdf"
	"sp2bench/internal/results"
)

// awkward is a result built to break a careless counter: quotes,
// backslashes, line breaks, commas, tabs, braces and angle brackets in
// values, tag-like text, an unbound cell, and a fully unbound row.
func awkward() *results.Result {
	return results.Select([]string{"a", "b"}, [][]rdf.Term{
		{rdf.String(`plain`), rdf.IRI("http://example.org/x")},
		{rdf.String("line one\nline two\r\nthree"), rdf.Blank("b1")},
		{rdf.String(`she said "hi", twice: ""`), {}},
		{rdf.String(`ends with a backslash \`), rdf.String(`\" and {"x":{"y":{}}} and [`)},
		{rdf.String("<result> is not a tag here </sparql>\n"), rdf.LangLiteral("tab\there", "en")},
		{{}, {}},
		{rdf.String(`true false "boolean"`), rdf.Integer(7)},
	})
}

var formats = map[string]results.Format{
	formatJSON: results.JSON, formatXML: results.XML, formatTSV: results.TSV, formatCSV: results.CSV,
}

// count feeds body to a fresh counter in chunks of the given size.
func count(t *testing.T, format string, body []byte, chunk int) (int64, bool) {
	t.Helper()
	c, err := newRowCounter(format)
	if err != nil {
		t.Fatal(err)
	}
	for len(body) > 0 {
		n := min(chunk, len(body))
		c.feed(body[:n])
		body = body[n:]
	}
	return c.finish()
}

func TestRowCountersAgainstTheWriters(t *testing.T) {
	empty := results.Select([]string{"a"}, nil)
	for name, f := range formats {
		for _, tc := range []struct {
			what string
			res  *results.Result
			want int64
		}{
			{"awkward", awkward(), 7},
			{"empty", empty, 0},
		} {
			var body bytes.Buffer
			if err := tc.res.Write(&body, f); err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1, 2, 3, 7, 64, body.Len()} {
				rows, complete := count(t, name, body.Bytes(), chunk)
				if rows != tc.want || !complete {
					t.Errorf("%s %s in chunks of %d: %d rows, complete=%v; want %d, true\n%s",
						name, tc.what, chunk, rows, complete, tc.want, body.Bytes())
				}
			}
			// Every proper prefix is a truncated body. A prefix that ends
			// on a record boundary is a well-formed shorter CSV/TSV
			// document, so for those only the count can give it away;
			// JSON that lost only its trailing newline is still whole.
			for cut := 0; cut < body.Len(); cut++ {
				if name == formatJSON && cut == body.Len()-1 {
					continue
				}
				rows, complete := count(t, name, body.Bytes()[:cut], 5)
				if complete && rows == tc.want {
					t.Errorf("%s %s truncated to %d of %d bytes passes as complete with %d rows",
						name, tc.what, cut, body.Len(), rows)
				}
			}
		}
	}
}

func TestRowCountersAsk(t *testing.T) {
	for _, name := range []string{formatJSON, formatXML} {
		for _, verdict := range []bool{true, false} {
			var body bytes.Buffer
			if err := results.Ask(verdict).Write(&body, formats[name]); err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if verdict {
				want = 1
			}
			for _, chunk := range []int{1, 4, body.Len()} {
				rows, complete := count(t, name, body.Bytes(), chunk)
				if rows != want || !complete {
					t.Errorf("%s ASK %v in chunks of %d: %d rows, complete=%v\n%s", name, verdict, chunk, rows, complete, body.Bytes())
				}
			}
		}
	}
}

func TestRowCounterUnknownFormat(t *testing.T) {
	if _, err := newRowCounter("table"); err == nil {
		t.Error("no error for a format without a counter")
	}
}
