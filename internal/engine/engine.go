// Package engine evaluates SPARQL queries over a store.Store. Its
// operators stop early for ASK queries and LIMIT clauses — behaviour the
// paper calls out as missing in the engines it benchmarks (Q12a
// discussion).
//
// It is one engine family, the paper's native one (Sesame-DB / Virtuoso
// stand-in): patterns use the store's SPO/POS/OSP indexes, BGPs are
// reordered by estimated selectivity, filter conjuncts are pushed to the
// earliest step that binds their variables, uncorrelated OPTIONAL
// right-hand sides are hash-joined, and queries run batch-at-a-time.
// Options only switch physical operators on and off; every
// configuration is held to an independent reference evaluator in the
// package's tests.
//
// There is one executor, batch-at-a-time (vec.go), for every query
// form. A BGP runs as a scan → join chain whose per-step join operators
// (join.go) and partitioned parallel scan (parallel.go) are chosen from
// the store's statistics. Above the BGPs every algebra operator has a
// batch operator; a join or OPTIONAL whose right side is correlated
// with its left re-opens the right side per left row, its BGPs then
// chains anchored on that row (bind.go), and the closed-world negation
// over such a side is an existence search per key (semi.go).
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// Options selects an engine configuration: the physical knobs the
// agreement tests force.
type Options struct {
	// Name labels the configuration in reports ("native", ...).
	Name string
	// HashJoins enables hash join stages in BGP chains: a join step whose
	// estimated input exceeds a threshold builds a hash table on the
	// smaller estimated side — the step's matching triples, or a
	// disconnected trailing block linked by an equality filter (the Q5a
	// shape) — instead of probing the index per row.
	HashJoins bool
	// MergeJoins evaluates a BGP chain's join step by merging two index
	// ranges co-sorted on the shared variable (the RDF-3X fast path over
	// the store's SPO/POS/OSP permutations).
	MergeJoins bool
	// ParallelWorkers is the number of workers an outer-free BGP's
	// anchor (first-pattern) index range is partitioned across, each
	// running the BGP's batch scan → join chain on its slice with an
	// order-preserving result merge: 0 means GOMAXPROCS, 1 sequential.
	// A forced count above 1 also partitions BGPs too small to pay for
	// workers; tests use it to force multi-worker plans on single-core
	// machines and on tiny graphs.
	ParallelWorkers int
	// BatchSize overrides the batch operators' row capacity; 0 means
	// DefaultBatchSize. Tests use tiny sizes to stress batch boundaries.
	BatchSize int
}

// Native returns the native engine configuration (the paper's
// Sesame-DB/Virtuoso family) with every optimization on. It is what
// sp2bserve and sp2bquery serve.
func Native() Options {
	return Options{Name: "native", HashJoins: true, MergeJoins: true}
}

// Engine evaluates queries over one immutable triple source: a frozen
// store, or any other store.Reader (an mvcc.Snapshot pins one dataset
// version, which is how queries stay consistent while writers ingest).
type Engine struct {
	src  store.Reader
	st   *store.Store // set when the source is a plain store (Store())
	opts Options
}

// New returns an engine over st. The store must be frozen before queries
// run; New freezes it defensively.
//
// sp2b:locks=write the defensive Freeze writes the store: callers passing a
// shared store must hold its write lock or own it outright (MVCC
// deployments instead hand each engine an immutable NewReader snapshot)
func New(st *store.Store, opts Options) *Engine {
	st.Freeze()
	return &Engine{src: st, st: st, opts: opts}
}

// NewReader returns an engine over any read-only triple source. The
// source must be immutable for the engine's lifetime; construction is
// allocation-only, so per-request engines over per-request snapshots
// are cheap.
func NewReader(src store.Reader, opts Options) *Engine {
	return &Engine{src: src, opts: opts}
}

// Store returns the underlying store when the engine was built over a
// plain *store.Store with New, and nil for other sources.
func (e *Engine) Store() *store.Store { return e.st }

// Source returns the triple source the engine evaluates against.
func (e *Engine) Source() store.Reader { return e.src }

// Options returns the engine configuration.
func (e *Engine) Options() Options { return e.opts }

// Result is the materialized outcome of a query: every solution's terms
// held at once. The protocol server does not build one for a plain
// SELECT; it writes the rows of Select as they are produced. Result
// serves ASK and aggregate answers, and callers that need the whole
// table (CONSTRUCT/DESCRIBE post-processing, the CLI, the tests).
type Result struct {
	// Form distinguishes SELECT from ASK results.
	Form sparql.Form
	// Vars is the projection, in SELECT order.
	Vars []string
	// Rows holds one term slice per solution, aligned with Vars. Unbound
	// variables are zero Terms.
	Rows [][]rdf.Term
	// Ask is the ASK verdict (Form == FormAsk only).
	Ask bool
}

// Len returns the number of solutions (0 or 1 for ASK).
func (r *Result) Len() int {
	if r.Form == sparql.FormAsk {
		if r.Ask {
			return 1
		}
		return 0
	}
	return len(r.Rows)
}

// ErrCancelled wraps context cancellation/timeouts discovered mid-query.
var ErrCancelled = errors.New("query cancelled")

// Query runs q to completion and materializes the result. ASK queries stop
// at the first solution. Aggregate queries are dispatched to Aggregate;
// CONSTRUCT and DESCRIBE queries return graphs, not bindings, and must go
// through Construct/Describe (or Eval). A SELECT result is the rows
// Select yields, each copied.
func (e *Engine) Query(ctx context.Context, q *sparql.Query) (*Result, error) {
	if q.Form == sparql.FormConstruct || q.Form == sparql.FormDescribe {
		return nil, fmt.Errorf("engine: %v queries return graphs; use Eval", q.Form)
	}
	if q.IsAggregate() {
		return e.Aggregate(ctx, q)
	}
	if q.Form == sparql.FormAsk {
		c, err := e.compile(ctx, q)
		if err != nil {
			return nil, err
		}
		defer c.close()
		ok, err := c.ask()
		if err != nil {
			return nil, err
		}
		return &Result{Form: sparql.FormAsk, Ask: ok}, nil
	}
	rows, err := e.Select(ctx, q)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &Result{Form: sparql.FormSelect, Vars: rows.Vars}
	for rows.Next() {
		res.Rows = append(res.Rows, slices.Clone(rows.Row()))
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Count runs q and returns only the number of solutions, without
// materializing terms. The benchmark harness uses it to reproduce the
// paper's result-size table without the memory cost of materialization.
func (e *Engine) Count(ctx context.Context, q *sparql.Query) (int, error) {
	if q.Form == sparql.FormConstruct || q.Form == sparql.FormDescribe {
		_, g, err := e.Eval(ctx, q)
		return len(g), err
	}
	if q.IsAggregate() {
		r, err := e.Aggregate(ctx, q)
		if err != nil {
			return 0, err
		}
		return r.Len(), nil
	}
	c, err := e.compile(ctx, q)
	if err != nil {
		return 0, err
	}
	defer c.close()
	if q.Form == sparql.FormAsk {
		if ok, err := c.ask(); !ok || err != nil {
			return 0, err
		}
		return 1, nil
	}
	// Sum batch row counts: no materialization at all, not even
	// per-row calls.
	c.vec.open()
	n := 0
	for {
		if err := c.cancel.now(); err != nil {
			return n, err
		}
		b, err := c.vec.next()
		if err != nil {
			return n, err
		}
		if b == nil {
			return n, nil
		}
		n += b.Len()
	}
}

// CountAnalyze runs Count with EXPLAIN ANALYZE tracing enabled and
// returns the count together with the execution trace.
func (e *Engine) CountAnalyze(ctx context.Context, q *sparql.Query) (int, *Trace, error) {
	ctx, h := WithAnalyze(ctx)
	n, err := e.Count(ctx, q)
	return n, h.Trace(), err
}

// Explain returns a description of the physical plan chosen for q: BGP
// reordering and filter pinning, and the batch operator chains. For an
// aggregate query it is the plan of the core SELECT that Aggregate
// groups. sp2bquery -explain prints it, and tests pin optimizer
// behaviour with it.
func (e *Engine) Explain(q *sparql.Query) (string, error) {
	if q.IsAggregate() {
		q = aggregateCore(q)
	}
	c, err := e.compile(context.Background(), q)
	if err != nil {
		return "", err
	}
	return c.explain(), nil
}

func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
	return nil
}
