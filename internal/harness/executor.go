package harness

import (
	"context"

	"sp2bench/internal/client"
	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/sparql"
)

// Executor is one backend capable of running benchmark queries: the
// in-process engine or a remote SPARQL endpoint. The
// measurement pipeline (runCell/runOnce) is written
// against this interface only, which is what lets the harness benchmark
// engines it does not link against — the cross-engine posture of the
// original SP2Bench.
type Executor interface {
	// Name labels the backend in reports ("native", "endpoint").
	Name() string
	// Execute runs q to completion and returns its solution count.
	Execute(ctx context.Context, q queries.Query) (int, error)
}

// preparer is the optional Executor refinement for backends with
// measurable client-side setup per query. runOnce calls Prepare before
// starting the clock, so the measured wall stays pure execution — the
// paper's protocol times evaluation, not parsing.
type preparer interface {
	Prepare(q queries.Query) error
}

// explainer is the optional Executor refinement for backends that can
// describe the physical plan they would run. The harness records it on
// each cell (QueryRun.Plan → the JSON report's plan field), so reports
// carry the operator choices behind every number.
type explainer interface {
	Explain(q queries.Query) (string, bool)
}

// analyzer is the optional Executor refinement for backends that can
// run a query under EXPLAIN ANALYZE tracing. With Config.Analyze set,
// runCell takes one extra traced run per cell — outside the measured
// window, so tracing never contaminates the protocol's numbers — and
// records the trace on the cell (QueryRun.Trace → runs[].trace in the
// JSON report).
type analyzer interface {
	Analyze(ctx context.Context, q queries.Query) (int, *engine.Trace, error)
}

// engineExecutor evaluates queries on an in-process engine. Parsing
// happens in Prepare (outside the measured window) and is cached, so
// the measured runs of the protocol (paper: 3 per cell) never pay the
// parser. The cache is not safe for concurrent use; the protocol drives
// one executor from one goroutine.
type engineExecutor struct {
	eng    *engine.Engine
	parsed map[string]*sparql.Query
}

func newEngineExecutor(eng *engine.Engine) *engineExecutor {
	return &engineExecutor{eng: eng, parsed: map[string]*sparql.Query{}}
}

func (e *engineExecutor) Name() string { return e.eng.Options().Name }

func (e *engineExecutor) Prepare(q queries.Query) error {
	if _, ok := e.parsed[q.ID]; ok {
		return nil
	}
	pq, err := sparql.Parse(q.Text, queries.Prologue)
	if err != nil {
		return err
	}
	e.parsed[q.ID] = pq
	return nil
}

// Explain reports the engine's physical plan for q: the BGP reorderings
// and per-step operator choices (scan/nl/merge/hash/hashseg, parallel
// partitions) the optimizer committed to.
func (e *engineExecutor) Explain(q queries.Query) (string, bool) {
	if err := e.Prepare(q); err != nil {
		return "", false
	}
	plan, err := e.eng.Explain(e.parsed[q.ID])
	if err != nil {
		return "", false
	}
	return plan, true
}

func (e *engineExecutor) Execute(ctx context.Context, q queries.Query) (int, error) {
	pq, ok := e.parsed[q.ID]
	if !ok {
		if err := e.Prepare(q); err != nil {
			return 0, err
		}
		pq = e.parsed[q.ID]
	}
	return e.eng.Count(ctx, pq)
}

// Analyze runs q once with EXPLAIN ANALYZE tracing and returns the
// count and the per-operator trace.
func (e *engineExecutor) Analyze(ctx context.Context, q queries.Query) (int, *engine.Trace, error) {
	if err := e.Prepare(q); err != nil {
		return 0, nil, err
	}
	return e.eng.CountAnalyze(ctx, e.parsed[q.ID])
}

// endpointExecutor submits queries to a remote SPARQL endpoint through
// the protocol client. The benchmark texts carry no prologue (the
// in-process parser takes the prefixes from queries.Prologue), so the
// standard prefix declarations are prepended before the query leaves
// the process.
type endpointExecutor struct {
	c *client.Client
}

func newEndpointExecutor(c *client.Client) *endpointExecutor {
	return &endpointExecutor{c: c}
}

func (e *endpointExecutor) Name() string { return "endpoint" }

func (e *endpointExecutor) Execute(ctx context.Context, q queries.Query) (int, error) {
	return e.c.Count(ctx, queries.PrologueText()+q.Text)
}
