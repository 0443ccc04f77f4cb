package engine_test

// Tests for the partitioned batch executor (vecParallel): row order
// against a sequential run, and worker shutdown on every way a query
// can end early, also under Q7's correlated anti search.

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
	"sp2bench/internal/testutil"
)

// TestVecParallelPreservesRowOrder: partitions are contiguous slices of
// the sorted anchor range, drained in partition order, so a partitioned
// run returns exactly the sequential run's rows in the same order.
func TestVecParallelPreservesRowOrder(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	seq := engine.Native()
	seq.Name, seq.ParallelWorkers = "native-sequential", 1
	for _, q := range queries.All() {
		parsed := q.Parse()
		ref := orderedRows(t, s, seq, parsed)
		for _, opts := range parallel4() {
			if got := orderedRows(t, s, opts, parsed); !slices.Equal(got, ref) {
				t.Errorf("%s: %s returned %d rows in a different order from %s's %d",
					q.ID, opts.Name, len(got), seq.Name, len(ref))
			}
		}
	}
}

func orderedRows(t *testing.T, s *store.Store, opts engine.Options, q *sparql.Query) []string {
	t.Helper()
	res, err := engine.New(s, opts).Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", opts.Name, err)
	}
	return render(res)
}

// faultReader passes the first `after` ranges through and runs fault
// before every later one; calls arrive from partition workers
// concurrently.
type faultReader struct {
	store.Reader
	calls atomic.Int64
	after int64
	fault func()
}

func (r *faultReader) RangeIn(ord store.Order, s, p, o store.ID) store.IndexRange {
	if r.calls.Add(1) > r.after {
		r.fault()
	}
	return r.Reader.RangeIn(ord, s, p, o)
}

var errInjected = errors.New("injected scan fault")

// TestVecParallelStopsWorkers: however a partitioned query ends — LIMIT
// abandoning the drain, a cancelled context, a context cancelled mid
// scan, or a fault panicking inside a worker — every worker is joined
// before the query returns, and the outcome reaches the caller.
func TestVecParallelStopsWorkers(t *testing.T) {
	testutil.CheckNoLeaks(t)
	s, _ := generatedStore(t, 10_000)
	opts := parallel4()[0]
	q4, _ := queries.ByID("q4") // an nl probe per anchor row, then six hash stages
	heavy := q4.Parse()

	lim := sparql.MustParse(
		`SELECT ?inproc WHERE { ?inproc rdf:type bench:Inproceedings . ?inproc dc:creator ?author } LIMIT 1`,
		rdf.Prefixes)
	if n, err := engine.New(s, opts).Count(context.Background(), lim); err != nil || n != 1 {
		t.Fatalf("LIMIT 1: got %d, %v", n, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engine.New(s, opts).Count(ctx, heavy); !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("cancelled context: err = %v, want ErrCancelled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	if _, err := faultyEngine(t, s, opts, heavy, cancel).Count(ctx, heavy); !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("context cancelled mid-scan: err = %v, want ErrCancelled", err)
	}

	checkWorkerFault(t, s, opts, heavy)
}

// faultyEngine returns an engine over s whose 21st execution-time
// probe, after the ranges compiling q opens, runs fault.
func faultyEngine(t *testing.T, s *store.Store, opts engine.Options, q *sparql.Query, fault func()) *engine.Engine {
	t.Helper()
	fr := &faultReader{Reader: s, after: 1 << 62, fault: fault}
	eng := engine.NewReader(fr, opts)
	if _, err := eng.Explain(q); err != nil {
		t.Fatal(err)
	}
	fr.after = fr.calls.Swap(0) + 20
	return eng
}

// checkWorkerFault runs q with a fault panicking inside a partition
// worker and requires the panic to reach the caller, where it can be
// recovered, rather than end the process.
func checkWorkerFault(t *testing.T, s *store.Store, opts engine.Options, q *sparql.Query) {
	t.Helper()
	eng := faultyEngine(t, s, opts, q, func() { panic(errInjected) })
	defer func() {
		if r := recover(); r != errInjected {
			t.Errorf("%s: worker fault: recovered %v, want the injected fault", opts.Name, r)
		}
	}()
	eng.Count(context.Background(), q)
}

// TestCorrelatedAntiRelaysWorkerFaults: Q7's correlated anti search
// runs over its outer BGP's partitioned chain, so a panic in one of
// that chain's workers must reach the caller through the search, and
// no worker may outlive the query.
func TestCorrelatedAntiRelaysWorkerFaults(t *testing.T) {
	testutil.CheckNoLeaks(t)
	s, _ := generatedStore(t, 10_000)
	q7, _ := queries.ByID("q7")
	checkWorkerFault(t, s, parallel4()[0], q7.Parse())
}

// cancelOnAntiProbe cancels its query at the first object-only probe
// (s and p unbound, o bound). In Q7's plan at 10k only the correlated
// search opens one: `?bag3 ?member3 ?doc`, keyed on the left row's
// ?doc.
type cancelOnAntiProbe struct {
	store.Reader
	cancel context.CancelFunc
	fired  *atomic.Bool
}

func (r cancelOnAntiProbe) RangeIn(ord store.Order, s, p, o store.ID) store.IndexRange {
	if s == store.NoID && p == store.NoID && o != store.NoID && !r.fired.Swap(true) {
		r.cancel()
	}
	return r.Reader.RangeIn(ord, s, p, o)
}

// TestCorrelatedAntiCancelledMidRun: a Q7 Count cancelled at the first
// range its correlated search opens must end with ErrCancelled. Q7 has
// no solution at 10k, so only a check inside the search can see the
// cancellation: the Count loop's own check comes before a batch that
// never arrives.
func TestCorrelatedAntiCancelledMidRun(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	q7, _ := queries.ByID("q7")
	for _, opts := range []engine.Options{engine.Native(), parallel4()[0]} {
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Bool
		eng := engine.NewReader(cancelOnAntiProbe{Reader: s, cancel: cancel, fired: &fired}, opts)
		n, err := eng.Count(ctx, q7.Parse())
		cancel()
		if !fired.Load() {
			t.Fatalf("%s: the correlated search opened no object-only range", opts.Name)
		}
		if !errors.Is(err, engine.ErrCancelled) {
			t.Errorf("%s: Count = %d, %v; want ErrCancelled", opts.Name, n, err)
		}
	}
}

// blockProbeFault panics on the probes Q5a's hashed block makes while it
// is built (a person's foaf:name, subject bound) and on nothing else,
// so the fault lands inside a build other partitions wait on.
type blockProbeFault struct {
	store.Reader
	name store.ID
}

func (r blockProbeFault) RangeIn(ord store.Order, s, p, o store.ID) store.IndexRange {
	if s != store.NoID && p == r.name {
		panic(errInjected)
	}
	return r.Reader.RangeIn(ord, s, p, o)
}

// TestVecParallelBuildFaultEndsQuery: a build side that panics while
// partitions wait on it (or on a later stage's build it took) must still
// end the query — the panic re-raised or an error returned — with every
// worker joined, never a partition waiting forever.
func TestVecParallelBuildFaultEndsQuery(t *testing.T) {
	testutil.CheckNoLeaks(t)
	s, _ := generatedStore(t, 10_000)
	name, ok := s.TermDict().Lookup(rdf.IRI(rdf.FOAFName))
	if !ok {
		t.Fatal("foaf:name not in the dictionary")
	}
	q5a, _ := queries.ByID("q5a")
	eng := engine.NewReader(blockProbeFault{Reader: s, name: name}, parallel4()[0])
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		if _, err := eng.Count(context.Background(), q5a.Parse()); err == nil {
			t.Error("a faulted build returned no error")
		}
	}()
	select {
	case r := <-done:
		if r != nil && r != errInjected {
			t.Errorf("recovered %v, want the injected fault or an error", r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the query hung on a faulted build")
	}
}
