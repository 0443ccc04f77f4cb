package engine

// EXPLAIN ANALYZE: an opt-in trace collector wrapped around the batch
// operators. When a query runs under WithAnalyze, every operator is
// wrapped in a vecTraced recording batches and rows out and inclusive
// wall time, and BGP chains carry per-step counters (actual rows per
// join depth, hash/segment build sizes) next to the planner's
// cumulative cardinality estimates — so est-vs-actual misestimation
// ratios fall straight out of one execution.
//
// When tracing is off the executor pays one context value lookup per
// query and one nil check per emitted BGP row; nothing is wrapped and
// nothing is timed. The committed overhead measurement lives in
// docs/ARCHITECTURE.md ("Observability").

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// Trace is the materialized execution trace of one query: an operator
// tree mirroring the physical plan, with actual row counts, inclusive
// wall time, and (where the planner produced one) cumulative
// cardinality estimates.
type Trace struct {
	// Root is the outermost operator; Root.Rows equals the query's
	// solution count.
	Root *TraceNode `json:"root"`
	// WallNS is the inclusive wall time of the root operator.
	WallNS int64 `json:"wall_ns"`
	// Rows is the number of solutions the root produced.
	Rows int64 `json:"rows"`
}

// TraceNode is one operator of the trace tree.
type TraceNode struct {
	// Op names the operator: bgp, join, leftjoin, union, filter,
	// project, distinct, order, slice.
	Op string `json:"op"`
	// Detail carries operator-specific plan notes.
	Detail string `json:"detail,omitempty"`
	// EstRows is the planner's cardinality estimate for the operator's
	// output (0 = the planner produced none).
	EstRows float64 `json:"est_rows,omitempty"`
	// Rows is the number of rows the operator actually produced.
	Rows int64 `json:"rows"`
	// Batches is the number of batches the operator emitted.
	Batches int64 `json:"batches,omitempty"`
	// WallNS is inclusive wall time (children included).
	WallNS int64 `json:"wall_ns"`
	// Parallel is the worker fan-out of a partitioned BGP (0 = not
	// parallel).
	Parallel int `json:"parallel,omitempty"`
	// Partial marks an operator its consumer stopped pulling before it
	// was exhausted — under an ASK or a LIMIT, or never reached at
	// all: Rows and its steps' rows count only the prefix it produced.
	Partial bool `json:"partial,omitempty"`
	// Steps is the per-depth breakdown of a BGP operator.
	Steps []TraceStep `json:"steps,omitempty"`
	// Children are the operator's inputs.
	Children []*TraceNode `json:"children,omitempty"`
}

// TraceStep is one depth of a BGP operator: the physical join operator
// chosen, the pattern it evaluates, the planner's cumulative estimate
// of rows flowing out of this depth, the rows that actually did, and
// the build-side size for hash operators.
//
// A semi-join stage (semi.go) is one step, op "semi", whose rows are
// the input rows it kept, Probes the rows it searched and MemoHits the
// rows its verdict memo answered. The steps it searches follow it, op
// "semi:<operator>": they carry no estimate, Probes counts their
// lookups and Rows the candidates that matched.
//
// A dedup stage (dedup.go) is one step, op "dedup", whose pattern lists
// its key variables: RowsIn counts the rows it read, Rows those it
// kept. It carries no estimate.
type TraceStep struct {
	Op        string  `json:"op"`
	Pattern   string  `json:"pattern,omitempty"`
	EstRows   float64 `json:"est_rows,omitempty"`
	RowsIn    int64   `json:"rows_in,omitempty"`
	Rows      int64   `json:"rows"`
	Batches   int64   `json:"batches,omitempty"`
	BuildRows int64   `json:"build_rows,omitempty"`
	Probes    int64   `json:"probes,omitempty"`
	MemoHits  int64   `json:"memo_hits,omitempty"`
}

// TraceHandle is returned by WithAnalyze; after the query run under the
// returned context completes, Trace returns the collected trace.
type TraceHandle struct{ t *Trace }

// Trace returns the collected trace, or nil if no traced query has
// completed under the handle's context yet.
func (h *TraceHandle) Trace() *Trace { return h.t }

type traceCtxKey struct{}

// WithAnalyze returns a context that asks the engine to collect an
// execution trace for queries evaluated under it, and the handle the
// trace is delivered through. Forms that evaluate a core SELECT
// internally (aggregates, CONSTRUCT, DESCRIBE) deliver the core
// pattern's trace.
func WithAnalyze(ctx context.Context) (context.Context, *TraceHandle) {
	h := &TraceHandle{}
	return context.WithValue(ctx, traceCtxKey{}, h), h
}

func traceHandleFrom(ctx context.Context) *TraceHandle {
	h, _ := ctx.Value(traceCtxKey{}).(*TraceHandle)
	return h
}

// tnode is the mutable collector behind a TraceNode: counters are
// atomics because parallel BGP workers feed one shared node.
type tnode struct {
	op       string
	detail   string
	est      float64
	parallel int
	rows     atomic.Int64
	batches  atomic.Int64
	wall     atomic.Int64
	done     atomic.Bool // the latest open ran to exhaustion
	steps    []*tstep
	children []*tnode
}

// tstep is the mutable collector behind a TraceStep.
type tstep struct {
	op       string
	pattern  string
	est      float64
	in       atomic.Int64
	rows     atomic.Int64
	batches  atomic.Int64
	build    atomic.Int64
	probes   atomic.Int64
	memoHits atomic.Int64
}

// traceCollector is the per-compile trace state.
type traceCollector struct {
	handle *TraceHandle
	root   *tnode
}

// vecTraced wraps a vec operator, counting batches, rows, and
// inclusive wall time onto its trace node.
type vecTraced struct {
	inner vecOp
	n     *tnode
}

func (t *vecTraced) open() {
	start := time.Now()
	t.n.done.Store(false)
	t.inner.open()
	t.n.wall.Add(time.Since(start).Nanoseconds())
}

func (t *vecTraced) next() (*Batch, error) {
	start := time.Now()
	b, err := t.inner.next()
	t.n.wall.Add(time.Since(start).Nanoseconds())
	if b != nil {
		t.n.batches.Add(1)
		t.n.rows.Add(int64(b.Len()))
	} else if err == nil {
		t.n.done.Store(true)
	}
	return b, err
}

// snapshot converts the collector tree into the immutable Trace.
func (tc *traceCollector) snapshot() *Trace {
	if tc.root == nil {
		return nil
	}
	root := snapshotNode(tc.root)
	return &Trace{Root: root, WallNS: root.WallNS, Rows: root.Rows}
}

func snapshotNode(n *tnode) *TraceNode {
	out := &TraceNode{
		Op:       n.op,
		Detail:   n.detail,
		EstRows:  n.est,
		Rows:     n.rows.Load(),
		Batches:  n.batches.Load(),
		WallNS:   n.wall.Load(),
		Parallel: n.parallel,
		Partial:  !n.done.Load(),
	}
	for _, s := range n.steps {
		out.Steps = append(out.Steps, TraceStep{
			Op:        s.op,
			Pattern:   s.pattern,
			EstRows:   s.est,
			RowsIn:    s.in.Load(),
			Rows:      s.rows.Load(),
			Batches:   s.batches.Load(),
			BuildRows: s.build.Load(),
			Probes:    s.probes.Load(),
			MemoHits:  s.memoHits.Load(),
		})
	}
	for _, c := range n.children {
		out.Children = append(out.Children, snapshotNode(c))
	}
	return out
}

// deliver snapshots the collected trace into the handle; the compiled
// query calls it from close, so every evaluation entry point delivers
// without special-casing.
func (tc *traceCollector) deliver() {
	if tc.handle != nil {
		tc.handle.t = tc.snapshot()
	}
}

// CardinalityError walks every exhausted operator and step carrying
// both an estimate and an actual row count and returns the worst and
// the geometric-mean misestimation ratio (max(est/actual, actual/est),
// actuals clamped to 1 so empty results stay finite). Partial operators
// and their steps are left out: a prefix of rows says nothing about
// the estimate of the whole. Zero values mean no operator was scored.
func (t *Trace) CardinalityError() (maxRatio, geoMean float64) {
	var logSum float64
	var n int
	var walk func(nd *TraceNode)
	ratio := func(est float64, rows int64) {
		if est <= 0 {
			return
		}
		actual := math.Max(1, float64(rows))
		r := est / actual
		if r < 1 {
			r = 1 / r
		}
		if r > maxRatio {
			maxRatio = r
		}
		logSum += math.Log(r)
		n++
	}
	walk = func(nd *TraceNode) {
		if !nd.Partial {
			ratio(nd.EstRows, nd.Rows)
			for _, s := range nd.Steps {
				ratio(s.EstRows, s.Rows)
			}
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	if t.Root != nil {
		walk(t.Root)
	}
	if n == 0 {
		return 0, 0
	}
	return maxRatio, math.Exp(logSum / float64(n))
}

// Render writes the trace as an indented operator tree, one line per
// operator with actual vs estimated rows and inclusive wall time,
// followed by the per-step breakdown of BGP operators.
func (t *Trace) Render(w io.Writer) {
	if t == nil || t.Root == nil {
		fmt.Fprintln(w, "no trace collected")
		return
	}
	var render func(n *TraceNode, depth int)
	render = func(n *TraceNode, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(w, "%s%s", indent, n.Op)
		if n.Detail != "" {
			fmt.Fprintf(w, " (%s)", n.Detail)
		}
		fmt.Fprintf(w, "  rows=%d", n.Rows)
		if n.EstRows > 0 {
			fmt.Fprintf(w, " est=%.0f", n.EstRows)
		}
		if n.Batches > 0 {
			fmt.Fprintf(w, " batches=%d", n.Batches)
		}
		fmt.Fprintf(w, " wall=%v", time.Duration(n.WallNS).Round(time.Microsecond))
		if n.Parallel > 1 {
			fmt.Fprintf(w, " parallel=%d", n.Parallel)
		}
		if n.Partial {
			fmt.Fprint(w, " partial")
		}
		fmt.Fprintln(w)
		for i, s := range n.Steps {
			fmt.Fprintf(w, "%s  step %d: %s", indent, i, s.Op)
			if s.Pattern != "" {
				fmt.Fprintf(w, " %s", s.Pattern)
			}
			if s.RowsIn > 0 {
				fmt.Fprintf(w, "  in=%d rows=%d", s.RowsIn, s.Rows)
			} else {
				fmt.Fprintf(w, "  rows=%d", s.Rows)
			}
			if s.EstRows > 0 {
				fmt.Fprintf(w, " est=%.0f", s.EstRows)
			}
			if s.Batches > 0 {
				fmt.Fprintf(w, " batches=%d", s.Batches)
			}
			if s.BuildRows > 0 {
				fmt.Fprintf(w, " build=%d", s.BuildRows)
			}
			if s.Probes > 0 {
				fmt.Fprintf(w, " probes=%d", s.Probes)
			}
			if s.MemoHits > 0 {
				fmt.Fprintf(w, " memo_hits=%d", s.MemoHits)
			}
			fmt.Fprintln(w)
		}
		for _, c := range n.Children {
			render(c, depth+1)
		}
	}
	render(t.Root, 0)
	if maxR, geo := t.CardinalityError(); maxR > 0 {
		fmt.Fprintf(w, "cardinality error: max=%.2fx geomean=%.2fx\n", maxR, geo)
	}
}

// String renders the trace to a string (the -analyze flag's output).
func (t *Trace) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
