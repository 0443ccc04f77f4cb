package results

import (
	"io"
	"sync"
)

// Every writer appends its document into one encoder buffer and hands
// it to the destination whenever a row leaves at least flushSize bytes
// in it, so memory stays bounded by the chunk size plus one row. Over a
// streamed result (Stream) the rows are read from the engine as they
// are encoded, so the first bytes leave while the engine is still
// producing rows; until the first flush nothing has left, and a failed
// iterator drops the buffer, so its caller can still answer with an
// error. Buffers come from a pool so a one-row answer costs no
// allocation in the steady state; a buffer one huge row grew past
// maxPooledSize is left to the collector.
const (
	flushSize     = 64 << 10
	maxPooledSize = 1 << 20
)

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encoder is one response in flight: the pending bytes, the destination,
// and the first write error, after which nothing more is written. slice
// is the cursor over a held table, kept here so iterating one costs no
// allocation.
type encoder struct {
	buf   []byte
	w     io.Writer
	err   error
	slice sliceRows
}

func newEncoder(w io.Writer) *encoder {
	e := encoders.Get().(*encoder)
	e.w = w
	return e
}

// endRow flushes a full buffer and reports whether writing may go on.
func (e *encoder) endRow() bool {
	if len(e.buf) >= flushSize {
		e.flush()
	}
	return e.err == nil
}

// flush hands the pending bytes to the destination. Writers stop
// encoding at the first error, so nothing calls it after one.
func (e *encoder) flush() {
	if len(e.buf) == 0 {
		return
	}
	n, err := e.w.Write(e.buf)
	if err == nil && n < len(e.buf) {
		err = io.ErrShortWrite
	}
	e.err = err
	e.buf = e.buf[:0]
}

// rowsOf returns the row iterator of a SELECT result: its stream, or
// the encoder's cursor over its held rows.
func (e *encoder) rowsOf(r *Result) RowIter {
	if r.iter != nil {
		return r.iter
	}
	e.slice = sliceRows{rows: r.Rows}
	return &e.slice
}

// end finishes a document whose row loop ran out: when the iterator
// failed, the pending bytes are dropped and its error is returned;
// otherwise the terminator is written and the encoder closed.
func (e *encoder) end(rows RowIter, terminator string) error {
	if err := rows.Err(); err != nil {
		e.err, e.buf = err, e.buf[:0]
		return e.close()
	}
	e.str(terminator)
	return e.close()
}

// close flushes what is left unless a write already failed, returns the
// encoder to the pool and reports the first error.
func (e *encoder) close() error {
	if e.err == nil {
		e.flush()
	}
	err := e.err
	e.w, e.err, e.buf, e.slice = nil, nil, e.buf[:0], sliceRows{}
	if cap(e.buf) <= maxPooledSize {
		encoders.Put(e)
	}
	return err
}

func (e *encoder) str(s string) { e.buf = append(e.buf, s...) }

// byteSet marks the bytes a format writes through unchanged whatever
// surrounds them. A string made only of such bytes is appended as is;
// any other string goes through the format's escaping routine, so the
// fast path cannot change the output.
type byteSet [256]bool

// newByteSet returns the bytes lo..hi without those in except.
func newByteSet(lo, hi int, except string) *byteSet {
	s := new(byteSet)
	for c := lo; c <= hi; c++ {
		s[c] = true
	}
	for i := 0; i < len(except); i++ {
		s[except[i]] = false
	}
	return s
}

// contains reports whether every byte of v is in the set.
func (s *byteSet) contains(v string) bool {
	for i := 0; i < len(v); i++ {
		if !s[v[i]] {
			return false
		}
	}
	return true
}
