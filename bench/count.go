package main

import (
	"bytes"
	"fmt"
)

// Result formats the load generator requests. ASK templates are only
// ever requested as JSON or XML: the CSV/TSV formats define no boolean
// serialization, so their counter does not recognise one.
const (
	formatJSON = "json"
	formatXML  = "xml"
	formatTSV  = "tsv"
	formatCSV  = "csv"
)

// acceptHeader maps a format to the media type the client asks for.
var acceptHeader = map[string]string{
	formatJSON: "application/sparql-results+json",
	formatXML:  "application/sparql-results+xml",
	formatTSV:  "text/tab-separated-values",
	formatCSV:  "text/csv",
}

// rowCounter counts the solutions of a result document as its bytes
// stream past, without building terms: the client must stay a small,
// constant cost next to the server it measures, so the counters skip
// from one structural byte to the next with bytes.IndexByte instead of
// looking at every byte. feed may be called with chunks split anywhere;
// finish reports the rows seen and whether the document ended, closed,
// on the format's terminator (a truncated body does not).
type rowCounter interface {
	feed(p []byte)
	finish() (rows int64, complete bool)
}

func newRowCounter(format string) (rowCounter, error) {
	switch format {
	case formatJSON:
		return &jsonCounter{}, nil
	case formatXML:
		return &xmlCounter{
			result: matcher{pat: "<result>"},
			yes:    matcher{pat: "<boolean>true"},
		}, nil
	case formatTSV:
		return &svCounter{backslash: true}, nil
	case formatCSV:
		return &svCounter{}, nil
	}
	return nil, fmt.Errorf("no row counter for format %q", format)
}

// quoted tracks a double-quoted region whose closing quote may be
// escaped with a backslash (JSON strings, N-Triples literals).
type quoted struct {
	open, escaped bool
}

// skip consumes the part of p inside the quoted region and returns the
// rest, which starts just past the closing quote (empty when the
// region continues into the next chunk). backslash selects whether a
// backslash escapes the byte after it.
func (q *quoted) skip(p []byte, backslash bool) []byte {
	for len(p) > 0 {
		if q.escaped {
			q.escaped = false
			p = p[1:]
			continue
		}
		end := bytes.IndexByte(p, '"')
		seg := p
		if end >= 0 {
			seg = p[:end]
		}
		if backslash {
			if esc := bytes.IndexByte(seg, '\\'); esc >= 0 {
				q.escaped = true
				p = p[esc+1:]
				continue
			}
		}
		if end < 0 {
			return nil
		}
		q.open = false
		return p[end+1:]
	}
	return nil
}

// jsonCounter walks the SPARQL JSON results document tracking only
// string state and nesting: a solution is an object opened at brace
// depth 3 ({ "results": { "bindings": [ {…} ] } }); an ASK verdict is
// the bare true/false at depth 1.
type jsonCounter struct {
	str              quoted
	braces, brackets int
	rows             int64
	boolean, verdict bool // boolean: an ASK verdict was seen
	closed, trailing bool // closed: root object ended; trailing: bytes after it
}

func (c *jsonCounter) feed(p []byte) {
	for len(p) > 0 {
		if c.str.open {
			p = c.str.skip(p, true)
			continue
		}
		b := p[0]
		p = p[1:]
		if c.closed {
			if b != '\n' && b != ' ' && b != '\r' && b != '\t' {
				c.trailing = true
			}
			continue
		}
		switch b {
		case '"':
			c.str.open = true
		case '{':
			c.braces++
			if c.braces == 3 {
				c.rows++
			}
		case '}':
			c.braces--
			if c.braces == 0 {
				c.closed = true
			}
		case '[':
			c.brackets++
		case ']':
			c.brackets--
		case 't', 'f':
			// Outside strings at depth 1 only the literals true and
			// false start with these bytes.
			if c.braces == 1 && !c.boolean {
				c.boolean, c.verdict = true, b == 't'
			}
		}
	}
}

func (c *jsonCounter) finish() (int64, bool) {
	rows := c.rows
	if c.boolean {
		rows = 0
		if c.verdict {
			rows = 1
		}
	}
	return rows, c.closed && !c.trailing && !c.str.open && c.brackets == 0
}

// matcher counts occurrences of a pattern whose first byte occurs
// nowhere else in it ('<' here), which makes the restart rule trivial.
type matcher struct {
	pat string
	k   int
	n   int64
}

func (m *matcher) feed(b byte) {
	switch {
	case b == m.pat[m.k]:
		m.k++
		if m.k == len(m.pat) {
			m.n++
			m.k = 0
		}
	case b == m.pat[0]:
		m.k = 1
	default:
		m.k = 0
	}
}

// xmlTerminator ends every SPARQL XML results document the server
// writes.
const xmlTerminator = "</sparql>\n"

// xmlCounter counts <result> elements, and <boolean>true as one row.
// Text content is escaped, so the byte sequences can only be tags;
// <results> differs from <result> in its eighth byte.
type xmlCounter struct {
	result, yes matcher
	tail        []byte // last len(xmlTerminator) bytes
}

func (c *xmlCounter) feed(p []byte) {
	c.tail = append(c.tail, p[max(0, len(p)-len(xmlTerminator)):]...)
	if extra := len(c.tail) - len(xmlTerminator); extra > 0 {
		c.tail = append(c.tail[:0], c.tail[extra:]...)
	}
	for len(p) > 0 {
		if c.result.k == 0 && c.yes.k == 0 {
			next := bytes.IndexByte(p, '<')
			if next < 0 {
				return
			}
			p = p[next:]
		}
		c.result.feed(p[0])
		c.yes.feed(p[0])
		p = p[1:]
	}
}

func (c *xmlCounter) finish() (int64, bool) {
	return c.result.n + c.yes.n, string(c.tail) == xmlTerminator
}

// svCounter counts the records of a CSV or TSV document after the
// header, honouring quoted fields: a line break inside quotes belongs
// to the field. CSV escapes a quote by doubling it, which closes and
// reopens the field and needs no special case; TSV carries N-Triples
// terms, which escape with a backslash.
type svCounter struct {
	backslash bool
	field     quoted
	records   int64
	last      byte
}

var newline = []byte{'\n'}

func (c *svCounter) feed(p []byte) {
	if len(p) > 0 {
		c.last = p[len(p)-1]
	}
	for len(p) > 0 {
		if c.field.open {
			p = c.field.skip(p, c.backslash)
			continue
		}
		quote := bytes.IndexByte(p, '"')
		if quote < 0 {
			c.records += int64(bytes.Count(p, newline))
			return
		}
		c.records += int64(bytes.Count(p[:quote], newline))
		c.field.open = true
		p = p[quote+1:]
	}
}

func (c *svCounter) finish() (int64, bool) {
	complete := !c.field.open && c.last == '\n' && c.records >= 1
	return max(0, c.records-1), complete
}
