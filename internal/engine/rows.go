package engine

import (
	"context"
	"fmt"

	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// Rows is a cursor over the solutions of a SELECT query, yielded in the
// order Query materializes them. Solutions are produced on demand: the
// batch pipeline (or the tuple iterator tree) runs only as far as Next
// has asked, so a consumer that writes each row as it arrives holds one
// batch of IDs, not the whole answer. A Rows must be closed.
type Rows struct {
	// Vars is the projection, in SELECT order.
	Vars []string

	c      *compiled
	dict   store.TermSource
	row    []rdf.Term
	opened bool
	b      *Batch // batch path: the batch being read
	i      int    // batch path: the next row of b
	n      int
	err    error
	done   bool
}

// Select compiles a SELECT query and returns a cursor over its
// solutions. Compilation errors are returned here. Evaluation runs
// inside Next: an error, such as a cancelled context, ends the cursor
// and Err reports it. A panic in a parallel scan's worker (a bug) is
// re-raised out of Next on the caller's goroutine rather than killing
// the process. ASK, aggregate, CONSTRUCT and DESCRIBE queries go
// through Query or Eval.
func (e *Engine) Select(ctx context.Context, q *sparql.Query) (*Rows, error) {
	if q.Form != sparql.FormSelect || q.IsAggregate() {
		return nil, fmt.Errorf("engine: Select serves plain SELECT queries; use Eval for ASK, aggregates, CONSTRUCT and DESCRIBE")
	}
	c, err := e.compile(ctx, q)
	if err != nil {
		return nil, err
	}
	return &Rows{Vars: c.projection, c: c, dict: e.src.TermDict(), row: make([]rdf.Term, len(c.projSlots))}, nil
}

// Next advances to the next solution and reports whether there is one.
// It returns false at the end of the solutions or on an error (see Err).
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	if !r.opened {
		// Opened by the first Next, so that evaluation, and any fault it
		// raises, happens inside the cursor its caller closes.
		r.opened = true
		if r.c.vec != nil {
			r.c.vec.open()
		} else {
			r.c.root.open(r.c.emptyRow())
		}
	}
	if r.c.vec != nil {
		for r.b == nil || r.i >= r.b.Len() {
			// Checked per batch: the operators' own checks come round
			// every 1024th batch, which a short result never reaches.
			if err := r.c.cancel.now(); err != nil {
				return r.stop(err)
			}
			b, err := r.c.vec.next()
			if err != nil || b == nil {
				return r.stop(err)
			}
			r.b, r.i = b, 0
		}
		for j, slot := range r.c.projSlots {
			var id store.ID
			if slot >= 0 {
				id = r.b.cols[slot][r.i]
			}
			r.row[j] = r.term(id)
		}
		r.i++
	} else {
		ids, ok, err := r.c.root.next()
		if err != nil || !ok {
			return r.stop(err)
		}
		for j, slot := range r.c.projSlots {
			var id store.ID
			if slot >= 0 {
				id = ids[slot]
			}
			r.row[j] = r.term(id)
		}
	}
	r.n++
	return true
}

func (r *Rows) term(id store.ID) rdf.Term {
	if id == store.NoID {
		return rdf.Term{} // unbound
	}
	return r.dict.Term(id)
}

// stop ends the cursor with err (nil at the end of the solutions).
func (r *Rows) stop(err error) bool {
	r.err, r.done, r.b = err, true, nil
	return false
}

// Row returns the current solution, aligned with Vars; unbound cells
// are zero Terms. The slice is reused: it is valid until the next call
// to Next, and callers that keep a row must copy it.
func (r *Rows) Row() []rdf.Term { return r.row }

// Err returns the error that ended the cursor, if any.
func (r *Rows) Err() error { return r.err }

// Len returns the number of solutions Next has yielded so far.
func (r *Rows) Len() int { return r.n }

// Close ends the query: it joins any partition workers still running
// and delivers the EXPLAIN ANALYZE trace. It is safe to call more than
// once, and must be called whether or not the cursor was exhausted.
func (r *Rows) Close() {
	if r.c == nil {
		return
	}
	r.c.close()
	r.c, r.done, r.b = nil, true, nil
}
