package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Writer streams triples in N-Triples syntax. It buffers internally and
// counts triples and bytes, so the generator can enforce triple limits and
// report document sizes without re-reading the output.
type Writer struct {
	bw      *bufio.Writer
	line    []byte // reused encoding buffer for one triple
	triples int64
	bytes   int64
	err     error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// WriteTriple emits one triple. Errors are sticky: after the first failure
// all subsequent writes are no-ops returning the same error.
func (w *Writer) WriteTriple(t Triple) error {
	if w.err != nil {
		return w.err
	}
	w.line = append(t.appendNT(w.line[:0]), '\n')
	n, err := w.bw.Write(w.line)
	w.bytes += int64(n)
	if err != nil {
		w.err = err
		return err
	}
	w.triples++
	return nil
}

// Count returns the number of triples written so far.
func (w *Writer) Count() int64 { return w.triples }

// Bytes returns the number of bytes written so far (pre-flush).
func (w *Writer) Bytes() int64 { return w.bytes }

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// ParseError describes a syntax error in N-Triples input.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// Reader parses N-Triples input line by line with constant memory.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader returns a Reader over r. Lines up to 1 MiB are supported
// (abstract literals are ~150 words, well under the limit).
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{sc: sc}
}

// Read returns the next triple. It returns io.EOF at end of input.
func (r *Reader) Read() (Triple, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := r.parseLine(line)
		if err != nil {
			return Triple{}, err
		}
		return t, nil
	}
	if err := r.sc.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

// ReadAll reads every remaining triple.
func (r *Reader) ReadAll() ([]Triple, error) {
	var out []Triple
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

func (r *Reader) parseLine(line string) (Triple, error) {
	return ParseTriple(line, r.line)
}

// ParseTriple parses one N-Triples statement (a single line, without the
// trailing newline; leading and trailing whitespace must already be
// trimmed). lineNo is reported in parse errors. It is the line-level
// entry point the parallel loader in internal/store splits work over.
func ParseTriple(line string, lineNo int) (Triple, error) {
	p := &lineParser{s: line, line: lineNo}
	s, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	pTerm, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.skipWS()
	if p.i >= len(p.s) || p.s[p.i] != '.' {
		return Triple{}, p.errf("expected terminating '.'")
	}
	p.i++
	p.skipWS()
	if p.i != len(p.s) {
		return Triple{}, p.errf("trailing content after '.'")
	}
	if s.IsLiteral() {
		return Triple{}, p.errf("literal in subject position")
	}
	if !pTerm.IsIRI() {
		return Triple{}, p.errf("predicate must be an IRI")
	}
	return Triple{S: s, P: pTerm, O: o}, nil
}

type lineParser struct {
	s    string
	i    int
	line int
}

func (p *lineParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) skipWS() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *lineParser) term() (Term, error) {
	p.skipWS()
	if p.i >= len(p.s) {
		return Term{}, p.errf("unexpected end of line")
	}
	switch p.s[p.i] {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return Term{}, p.errf("unexpected character %q", p.s[p.i])
	}
}

func (p *lineParser) iri() (Term, error) {
	p.i++ // consume '<'
	start := p.i
	for p.i < len(p.s) && p.s[p.i] != '>' {
		p.i++
	}
	if p.i >= len(p.s) {
		return Term{}, p.errf("unterminated IRI")
	}
	iri := p.s[start:p.i]
	p.i++ // consume '>'
	if iri == "" {
		return Term{}, p.errf("empty IRI")
	}
	return IRI(iri), nil
}

func (p *lineParser) blank() (Term, error) {
	if p.i+1 >= len(p.s) || p.s[p.i+1] != ':' {
		return Term{}, p.errf("malformed blank node")
	}
	p.i += 2
	start := p.i
	for p.i < len(p.s) && !isNTWhitespaceOrDot(p.s[p.i]) {
		p.i++
	}
	label := p.s[start:p.i]
	if label == "" {
		return Term{}, p.errf("empty blank node label")
	}
	return Blank(label), nil
}

func isNTWhitespaceOrDot(c byte) bool {
	return c == ' ' || c == '\t'
}

func (p *lineParser) literal() (Term, error) {
	p.i++ // consume opening quote
	var b strings.Builder
	for p.i < len(p.s) {
		c := p.s[p.i]
		if c == '"' {
			p.i++
			lex := b.String()
			// optional datatype
			if p.i+1 < len(p.s) && p.s[p.i] == '^' && p.s[p.i+1] == '^' {
				p.i += 2
				if p.i >= len(p.s) || p.s[p.i] != '<' {
					return Term{}, p.errf("expected datatype IRI after ^^")
				}
				dt, err := p.iri()
				if err != nil {
					return Term{}, err
				}
				return TypedLiteral(lex, dt.Value), nil
			}
			// optional language tag (not produced by the generator, but
			// round-tripped for external data)
			if p.i < len(p.s) && p.s[p.i] == '@' {
				p.i++
				start := p.i
				for p.i < len(p.s) && p.s[p.i] != ' ' && p.s[p.i] != '\t' {
					p.i++
				}
				lang := p.s[start:p.i]
				if lang == "" {
					return Term{}, p.errf("empty language tag")
				}
				return LangLiteral(lex, lang), nil
			}
			return Literal(lex), nil
		}
		if c == '\\' {
			p.i++
			if p.i >= len(p.s) {
				return Term{}, p.errf("dangling escape")
			}
			switch p.s[p.i] {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			default:
				return Term{}, p.errf("unknown escape \\%c", p.s[p.i])
			}
			p.i++
			continue
		}
		b.WriteByte(c)
		p.i++
	}
	return Term{}, p.errf("unterminated literal")
}
