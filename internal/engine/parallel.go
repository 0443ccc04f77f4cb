package engine

// Intra-query parallelism: the anchor (first-pattern) index range of a
// BGP is partitioned into contiguous chunks, one worker per chunk runs
// the BGP's batch scan → join chain (vec.go) over its slice, and the
// consumer drains the workers' outputs in partition order. Because the
// range is sorted and the partitions are contiguous, the concatenation
// is exactly the row order a sequential run would produce —
// order-preserving parallelism. Hash tables and materialized blocks are
// built once and shared read-only; every worker keeps its own cursors
// and its own canceller. This is the only way a scan is parallelized;
// a chain anchored on a bind join's left row is never partitioned.

import (
	"runtime"
	"sync"

	"sp2bench/internal/store"
)

// parallelMinRows is the smallest number of index rows a BGP's chain
// must touch before its anchor range is worth partitioning across
// workers.
const parallelMinRows = 2048

// partitionAnchor splits a BGP's anchor (first-pattern) range for
// vecParallel: one part per worker when the plan touches at
// least parallelMinRows index rows — every range when the worker count
// is forced by Options.ParallelWorkers — else the whole range.
// Partition clamps to the range's row count, so a one-row scan stays
// sequential no matter how large the downstream ranges are.
func (c *compiled) partitionAnchor(anchor store.IndexRange, touched int) []store.IndexRange {
	parts := 1
	if workers := c.eng.parallelWorkers(); workers > 1 && (touched >= parallelMinRows || c.eng.opts.ParallelWorkers > 0) {
		parts = workers
	}
	return anchor.Partition(parts)
}

// vecQueue bounds how far a partition worker runs ahead of the drain:
// while partition i is drained, each later worker buffers at most this
// many batches (at most vecQueue×DefaultBatchSize rows, a few MB) and
// then waits. Deep enough that the second of two partitions of a large
// result — Q4's BGP emits ~140k rows at 50k triples — does not wait for
// the drain.
const vecQueue = 128

// vecMsg is one unit of partition-worker output: a batch the worker no
// longer touches, a terminal error, or a panic to re-raise on the
// draining goroutine.
type vecMsg struct {
	b     *Batch
	err   error
	fault any
}

// vecParallel is the parallel executor for a partitioned batch BGP: one
// scan → join chain per part of the anchor range, each run by its own
// worker, drained in partition order. The compiled plan registers
// shutdown as a cleanup, so LIMIT, errors and panics join the workers
// before the query returns.
type vecParallel struct {
	c *compiled
	// ch is the planned pipeline chain instantiates once per part.
	ch    *vecChain
	parts []store.IndexRange

	outs    []chan vecMsg
	stop    chan struct{}
	workers sync.WaitGroup
	cur     int // partition currently drained
	started bool
}

func (p *vecParallel) open() {
	p.shutdown() // terminate the workers of a previous open
	p.outs = nil
	p.cur = 0
	p.started = false
}

// shutdown signals the workers of the current open to exit and joins
// them. The join matters beyond hygiene: workers read index ranges of
// the query's source, and callers release the source once the query
// returns — an MVCC snapshot's Close drops its pin on the version, and
// the store's count of who still reads a retired generation is honest
// only if nothing reads past that — so no worker may outlive its
// query. Blocked sends unblock via the stop select, busy workers
// observe stop through their cancellers within 1024 steps. Idempotent;
// safe before the first open and after exhaustion.
func (p *vecParallel) shutdown() {
	if p.stop != nil {
		close(p.stop)
		p.stop = nil
	}
	p.workers.Wait()
}

func (p *vecParallel) next() (*Batch, error) {
	if !p.started {
		p.started = true
		p.spawn()
	}
	for p.cur < len(p.outs) {
		msg, ok := <-p.outs[p.cur]
		switch {
		case !ok:
			p.cur++
		case msg.fault != nil:
			p.shutdown()
			panic(msg.fault)
		case msg.err != nil:
			p.shutdown()
			return nil, msg.err
		default:
			return msg.b, nil
		}
	}
	return nil, nil
}

func (p *vecParallel) spawn() {
	p.stop = make(chan struct{})
	p.outs = make([]chan vecMsg, len(p.parts))
	for i, part := range p.parts {
		out := make(chan vecMsg, vecQueue)
		p.outs[i] = out
		p.workers.Add(1)
		go p.run(part, out, p.stop)
	}
}

// chain instantiates the planned pipeline over one part of the anchor
// range: fresh copies of the scan, join, dedup and semi-join stages
// (planned but never opened, so they hold no run state, buffers, memo
// or set), each join's estimate scaled to the part's share of the rows.
// Read-only plan state — filters, slot maps, trace counters, a hash
// stage's shared build — stays shared.
func (p *vecParallel) chain(part store.IndexRange, cancel *canceller) vecOp {
	scan := *p.ch.scan
	scan.rng = part
	share := float64(part.Len()) / float64(max(1, p.ch.scan.rng.Len()))
	joins := make([]*vecJoin, len(p.ch.joins))
	for i, j := range p.ch.joins {
		jj := *j
		jj.est *= share
		if j.dedup != nil {
			d := *j.dedup
			jj.dedup = &d
		}
		joins[i] = &jj
	}
	cp := &vecChain{scan: &scan, joins: joins, semi: p.ch.semi.clone()}
	return cp.link(cancel)
}

// run drives one partition's chain over a canceller watching this
// open's stop channel, copying the chain's rows out of its reused
// batches for the drain. A panic in a worker is a bug; it travels to
// the drain as a message and is re-raised there, on the caller's
// goroutine, where the caller's own panic handling applies. Raised
// here it would kill the process.
func (p *vecParallel) run(part store.IndexRange, out chan<- vecMsg, stop <-chan struct{}) {
	defer p.workers.Done()
	defer close(out)
	send := func(m vecMsg) bool {
		select {
		case out <- m:
			return true
		case <-stop:
			return false
		}
	}
	defer func() {
		if r := recover(); r != nil {
			send(vecMsg{fault: r})
		}
	}()
	chain := p.chain(part, &canceller{ctx: p.c.cancel.ctx, stop: stop})
	chain.open()
	var acc *Batch // rows copied out of the chain's reused batches, not yet sent
	for {
		b, err := chain.next()
		if err != nil {
			send(vecMsg{err: err})
			return
		}
		if b == nil {
			if acc != nil {
				send(vecMsg{b: acc})
			}
			return
		}
		for r := 0; r < b.Len(); {
			if acc == nil {
				acc = NewBatch(b.Width(), b.Cap())
			}
			r += acc.appendRows(b, r)
			// A selective filter leaves a few rows per scanned batch;
			// sending each would fill the queue with near-empty messages
			// and stall the worker. Messages carry a full batch or at
			// least minBatchSize rows.
			if acc.Full() || (r == b.Len() && acc.Len() >= minBatchSize) {
				if !send(vecMsg{b: acc}) {
					return
				}
				acc = nil
				// An empty queue after the send means the drain was
				// waiting and took the batch directly. It is now
				// runnable on this worker's P but runs only when the
				// worker yields: with every P busy in a worker, an ASK or
				// LIMIT that needs just this batch would wait for the
				// scheduler's 10ms preemption.
				if len(out) == 0 {
					runtime.Gosched()
				}
			}
		}
	}
}

// parallelWorkers is the intra-query worker budget: 0 (the default)
// resolves to GOMAXPROCS.
func (e *Engine) parallelWorkers() int {
	if e.opts.ParallelWorkers > 0 {
		return e.opts.ParallelWorkers
	}
	return runtime.GOMAXPROCS(0)
}
