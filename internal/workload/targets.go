package workload

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sp2bench/internal/client"
	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// BatchQueue hands out update batches to update operations, cycling
// when exhausted. A wrapped batch holds triples the store already has,
// which Apply drops, so the store does not grow unboundedly. Safe for
// concurrent use.
type BatchQueue struct {
	mu      sync.Mutex
	batches [][]rdf.Triple
	next    int
}

// NewBatchQueue wraps the batches; it needs at least one.
func NewBatchQueue(batches [][]rdf.Triple) (*BatchQueue, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("workload: no update batches")
	}
	return &BatchQueue{batches: batches}, nil
}

// Next returns the next batch, cycling.
func (q *BatchQueue) Next() []rdf.Triple {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.batches[q.next]
	q.next = (q.next + 1) % len(q.batches)
	return b
}

// Len returns the number of distinct batches.
func (q *BatchQueue) Len() int { return len(q.batches) }

// UpdateBatches generates n yearly DBLP insert batches that continue
// the generator's timeline past endYear: the same gen.UpdateStream the
// paper's proposed update extension rests on, with the base document
// (years up to endYear) discarded — a scenario applies the deltas to a
// store that already holds data for those years. Pass the loaded
// document's gen.Stats.EndYear as endYear so the batches extend the
// store's own timeline.
func UpdateBatches(seed uint64, endYear, n int) ([][]rdf.Triple, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive batch count")
	}
	p := gen.DefaultParams(0)
	p.TripleLimit = 0
	p.Seed = seed
	if endYear < p.StartYear {
		return nil, fmt.Errorf("workload: end year %d before generator start year %d", endYear, p.StartYear)
	}
	p.EndYear = endYear + n
	var bufs []*bytes.Buffer
	if _, err := gen.UpdateStream(p, io.Discard, endYear, func(year int) io.Writer {
		b := &bytes.Buffer{}
		bufs = append(bufs, b)
		return b
	}); err != nil {
		return nil, err
	}
	batches := make([][]rdf.Triple, 0, len(bufs))
	for _, b := range bufs {
		ts, err := rdf.NewReader(b).ReadAll()
		if err != nil {
			return nil, err
		}
		batches = append(batches, ts)
	}
	return batches, nil
}

// StoreShared is the state every StoreTarget of one scenario shares: a
// generational MVCC view of the store and the update batch queue. There
// is no reader/writer lock — queries pin a snapshot of one dataset
// version and run lock-free while updates commit to later versions, the
// contention-free concurrency the mixed-update mixes measure.
type StoreShared struct {
	live    *mvcc.Store
	opts    engine.Options
	name    string
	batches *BatchQueue
	applied atomic.Int64
}

// NewStoreShared prepares a store for scenario driving; the store is
// adopted as the base generation of an MVCC store and must not be
// mutated by the caller afterwards. batches may be nil for read-only
// mixes.
func NewStoreShared(name string, st *store.Store, opts engine.Options, batches *BatchQueue) *StoreShared {
	return &StoreShared{name: name, live: mvcc.New(st, mvcc.MergePolicy{}), opts: opts, batches: batches}
}

// Close drains the background merger. Call once the scenario is done.
func (s *StoreShared) Close() { s.live.Close() }

// Live exposes the underlying MVCC store (observability: generation and
// delta size for reports).
func (s *StoreShared) Live() *mvcc.Store { return s.live }

// TriplesApplied reports how many statements update operations
// submitted (before deduplication against the dataset).
func (s *StoreShared) TriplesApplied() int {
	return int(s.applied.Load())
}

// Factory returns a TargetFactory building one StoreTarget per worker.
// Targets share the MVCC store and batch queue but own their parse
// cache (not safe for concurrent use). Engines are per-operation: each
// query takes its own snapshot.
func (s *StoreShared) Factory() TargetFactory {
	return func() Target {
		return &StoreTarget{
			shared: s,
			parsed: map[string]*sparql.Query{},
		}
	}
}

// StoreTarget drives an in-process engine over the shared store. Each
// query operation pins a fresh snapshot, so it sees a consistent
// dataset version without blocking updates running on other workers.
type StoreTarget struct {
	shared *StoreShared
	parsed map[string]*sparql.Query
}

// Name implements Target.
func (t *StoreTarget) Name() string { return t.shared.name }

// Execute implements Target. Parsing is cached — the protocol measures
// evaluation, and the cache makes repeat draws of a query (the point of
// a weighted mix) parser-free. Snapshot acquisition is an atomic load
// plus a refcount, so it stays inside the measured window without
// distorting it.
func (t *StoreTarget) Execute(ctx context.Context, q queries.Query) (int, error) {
	pq, ok := t.parsed[q.ID]
	if !ok {
		var err error
		pq, err = sparql.Parse(q.Text, queries.Prologue)
		if err != nil {
			return 0, err
		}
		t.parsed[q.ID] = pq
	}
	sn := t.shared.live.Snapshot()
	defer sn.Close()
	return engine.NewReader(sn, t.shared.opts).Count(ctx, pq)
}

// ApplyUpdate implements Updater: it commits the next insert batch as
// one atomic version bump. Readers keep their pinned snapshots; the
// background merger pays the index-rebuild cost off the operation path.
func (t *StoreTarget) ApplyUpdate(ctx context.Context) (int, error) {
	if t.shared.batches == nil {
		return 0, fmt.Errorf("workload: store target has no update batches")
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	batch := t.shared.batches.Next()
	t.shared.live.Apply(batch)
	t.shared.applied.Add(int64(len(batch)))
	return len(batch), nil
}

// EndpointTarget drives a remote SPARQL endpoint: queries via the
// protocol client, updates (when batches are set) via the endpoint's
// insert operation — which makes the open loop and the update stream
// work over HTTP exactly as they do in process.
type EndpointTarget struct {
	c       *client.Client
	batches *BatchQueue
}

// NewEndpointTarget wraps a protocol client; batches may be nil for
// read-only mixes.
func NewEndpointTarget(c *client.Client, batches *BatchQueue) *EndpointTarget {
	return &EndpointTarget{c: c, batches: batches}
}

// Name implements Target.
func (t *EndpointTarget) Name() string { return "endpoint" }

// Execute implements Target.
func (t *EndpointTarget) Execute(ctx context.Context, q queries.Query) (int, error) {
	return t.c.Count(ctx, queries.PrologueText()+q.Text)
}

// ApplyUpdate implements Updater.
func (t *EndpointTarget) ApplyUpdate(ctx context.Context) (int, error) {
	if t.batches == nil {
		return 0, fmt.Errorf("workload: endpoint target has no update batches")
	}
	return t.c.Update(ctx, t.batches.Next())
}
