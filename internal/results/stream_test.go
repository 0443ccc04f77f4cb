package results

import (
	"bytes"
	"errors"
	"testing"

	"sp2bench/internal/rdf"
)

// reusingRows yields a held table's rows through one reused slice, the
// way engine.Rows does, and fails with err after limit rows when err is
// set. A writer that kept a row past the next Next would see it
// overwritten.
type reusingRows struct {
	rows  [][]rdf.Term
	buf   []rdf.Term
	i     int
	limit int
	err   error
	out   error
}

func newReusingRows(r *Result) *reusingRows {
	return &reusingRows{rows: r.Rows, limit: len(r.Rows)}
}

func (s *reusingRows) Next() bool {
	if s.i == s.limit {
		s.out = s.err
		return false
	}
	s.buf = append(s.buf[:0], s.rows[s.i]...)
	s.i++
	return true
}

func (s *reusingRows) Row() []rdf.Term { return s.buf }
func (s *reusingRows) Err() error      { return s.out }

// TestStreamMatchesHeld writes every SELECT shape once from its held
// rows and once streamed through a reusing iterator: the bytes must be
// identical in every format.
func TestStreamMatchesHeld(t *testing.T) {
	cases := hostileCases()
	cases["q4-shaped"] = q4Shaped(3000) // several flushes
	for name, r := range cases {
		if r.IsAsk() {
			continue
		}
		for _, f := range AllFormats {
			var held, streamed bytes.Buffer
			if err := r.Write(&held, f); err != nil {
				t.Fatalf("%s/%s: %v", name, f, err)
			}
			if err := Stream(r.Vars, newReusingRows(r)).Write(&streamed, f); err != nil {
				t.Fatalf("%s/%s streamed: %v", name, f, err)
			}
			if !bytes.Equal(held.Bytes(), streamed.Bytes()) {
				t.Errorf("%s/%s: streamed output (%d bytes) differs from held (%d bytes)",
					name, f, streamed.Len(), held.Len())
			}
		}
	}
}

var errIter = errors.New("source went away")

// TestStreamIteratorFailure fails the iterator after n rows, below and
// above one flush: every format returns the iterator's error, hands the
// destination only whole flushed chunks of the document the first n
// rows make, and never writes its terminator.
func TestStreamIteratorFailure(t *testing.T) {
	terminator := map[Format]string{JSON: "]}}\n", XML: "</results>\n</sparql>\n"}
	all := q4Shaped(20_000)
	for _, n := range []int{0, 10, 20_000} {
		for _, f := range AllFormats {
			var want bytes.Buffer
			if err := Select(all.Vars, all.Rows[:n]).Write(&want, f); err != nil {
				t.Fatal(err)
			}
			it := newReusingRows(all)
			it.limit, it.err = n, errIter
			var got bytes.Buffer
			if err := Stream(all.Vars, it).Write(&got, f); !errors.Is(err, errIter) {
				t.Fatalf("n=%d %s: err = %v, want %v", n, f, err, errIter)
			}
			if want.Len() < flushSize {
				if got.Len() != 0 {
					t.Errorf("n=%d %s: %d bytes left before the first flush", n, f, got.Len())
				}
				continue
			}
			if got.Len() == 0 {
				t.Errorf("n=%d %s: nothing flushed from a %d-byte document", n, f, want.Len())
			}
			if !bytes.HasPrefix(want.Bytes(), got.Bytes()) || got.Len() >= want.Len() {
				t.Errorf("n=%d %s: %d bytes written are not a strict prefix of the %d-byte document",
					n, f, got.Len(), want.Len())
			}
			if term := terminator[f]; term != "" && bytes.Contains(got.Bytes(), []byte(term)) {
				t.Errorf("n=%d %s: terminator %q written after a failed iterator", n, f, term)
			}
		}
	}
}
