package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/rdf"
	"sp2bench/internal/results"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// Span names of the traced run. A request span's children are the calls
// the server makes for one request, in its order; probe spans run after
// the request and split the engine's share further.
const (
	spanSetup     = "setup"
	spanGenerate  = "gen.generate"
	spanLoad      = "store.load"
	spanSnapWrite = "snapshot.write"
	spanSnapRead  = "snapshot.read"
	spanStart     = "server.start"

	spanRequest   = "request"
	spanParse     = "sparql.parse"
	spanPin       = "mvcc.snapshot"
	spanEval      = "engine.eval"
	spanSerialize = "results.serialize"
	spanUnpin     = "mvcc.close"

	spanUpdate   = "update"
	spanRDFParse = "rdf.parse"
	spanApply    = "mvcc.apply"

	spanProbe    = "probe"
	spanExplain  = "engine.explain"
	spanCount    = "engine.count"
	spanScan     = "store.scan"
	spanScanMVCC = "mvcc.scan"
	spanPinLoop  = "mvcc.snapshot-loop"
	spanMerge    = "mvcc.merge"
)

const (
	// deltaBatches is how many insert batches the traced run commits
	// before it measures: the 10k-triple delta the MVCC probes and the
	// mutable workload's reads run over.
	deltaBatches = 10
	// minTracedCycles and maxTracedCycles bound the traced run whatever
	// its time budget: enough cycles for a median, few enough for a
	// span file a person can open.
	minTracedCycles = 3
	maxTracedCycles = 200
	// scanRepeats and pinLoop size the store probes.
	scanRepeats = 15
	pinLoop     = 1000
	// scanBatch is the column batch the scan probe copies into, the
	// vectorized executor's default.
	scanBatch = 1024
)

// tracedTail is how many continuation triples a traced run needs: the
// delta, one insert per cycle for the mutable workload, and slack for
// the generator finishing its document.
func tracedTail(w workload) int64 {
	n := int64(deltaBatches+1) * batchTriples
	if w.updates {
		n += maxTracedCycles * batchTriples
	}
	return n + batchTriples
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// tracedRun replays the workload's cycle in this process, on one
// goroutine, over the same document and templates as the end-to-end
// run, timing the calls the server makes into each layer. Read-only
// workloads evaluate on a shared engine over the frozen store, the
// mutable workload on a per-request snapshot of an MVCC store holding a
// deltaBatches×batchTriples delta, with one insert batch per cycle —
// the two request paths of internal/server. It records spans in tr and
// returns nothing else: every number comes out of the spans.
func tracedRun(ctx context.Context, tr *tracer, w workload, templates []template, order []int, ds *dataset, budget time.Duration) error {
	if len(ds.batches) < deltaBatches+1 {
		return fmt.Errorf("traced run needs %d insert batches, the dataset has %d", deltaBatches+1, len(ds.batches))
	}
	opts := engine.Native() // sp2bserve's default -engine

	// Both stores come from the snapshot file, as the server's does: a
	// store rehydrated from a snapshot lays its dictionary out
	// differently in memory from one that parsed the document, and
	// term-heavy queries see the difference. The second copy becomes
	// the MVCC store, which takes ownership of its base.
	var loaded [2]*store.Store
	for i := range loaded {
		sp := tr.begin(spanSnapRead, "", nil)
		st, err := snapshot.ReadFile(ds.snapshot)
		tr.end(sp)
		if err != nil {
			return err
		}
		if fi, err := os.Stat(ds.snapshot); err == nil {
			sp.count(int64(st.Len()), fi.Size())
		}
		loaded[i] = st
	}
	frozen := engine.NewReader(loaded[0], opts) // already frozen: what engine.New adds is a Freeze
	live := mvcc.New(loaded[1], mvcc.MergePolicy{Disabled: true})
	defer live.Close()

	batches := ds.batches
	insert := func() error {
		if len(batches) == 0 {
			return errors.New("insert stream exhausted")
		}
		batch := batches[0]
		batches = batches[1:]
		up := tr.begin(spanUpdate, insertTemplate, nil)
		sp := tr.begin(spanRDFParse, insertTemplate, up)
		triples, err := rdf.NewReader(bytes.NewReader(batch)).ReadAll()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp.count(int64(len(triples)), int64(len(batch)))
		sp = tr.begin(spanApply, insertTemplate, up)
		n := live.Apply(triples)
		tr.end(sp)
		sp.count(int64(n), int64(len(batch)))
		tr.end(up)
		up.count(int64(n), int64(len(batch)))
		return nil
	}
	for i := 0; i < deltaBatches; i++ {
		if err := insert(); err != nil {
			return err
		}
	}

	request := func(t template) error {
		format, err := results.ParseFormat(t.format)
		if err != nil {
			return err
		}
		req := tr.begin(spanRequest, t.name, nil)
		sp := tr.begin(spanParse, t.name, req)
		q, err := sparql.Parse(t.text, rdf.Prefixes)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		eng := frozen
		var sn *mvcc.Snapshot
		if w.updates {
			sp = tr.begin(spanPin, t.name, req)
			sn = live.Snapshot()
			eng = engine.NewReader(sn, opts)
			tr.end(sp)
		}
		sp = tr.begin(spanEval, t.name, req)
		res, _, err := eng.Eval(ctx, q)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		sp.count(int64(res.Len()), 0)
		var out countingWriter
		sp = tr.begin(spanSerialize, t.name, req)
		err = results.FromEngine(res).Write(&out, format)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		sp.count(int64(res.Len()), out.n)
		if sn != nil {
			sp = tr.begin(spanUnpin, t.name, req)
			sn.Close()
			tr.end(sp)
		}
		tr.end(req)
		req.count(int64(res.Len()), out.n)

		// Probes: the same query again, stopping after compilation, and
		// again without materializing terms.
		if sn != nil {
			sn = live.Snapshot()
			defer sn.Close()
			eng = engine.NewReader(sn, opts)
		}
		probe := tr.begin(spanProbe, t.name, nil)
		sp = tr.begin(spanExplain, t.name, probe)
		_, err = eng.Explain(q)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		sp = tr.begin(spanCount, t.name, probe)
		n, err := eng.Count(ctx, q)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		sp.count(int64(n), 0)
		tr.end(probe)
		return nil
	}

	// spansPerCycle over-estimates what one cycle records.
	spansPerCycle := 12 * len(order)
	start := time.Now()
	for cycle := 0; cycle < maxTracedCycles && tr.room(spansPerCycle+64); cycle++ {
		if cycle >= minTracedCycles && time.Since(start) >= budget {
			break
		}
		for _, i := range order {
			if err := ctx.Err(); err != nil {
				return err
			}
			var err error
			if templates[i].isInsert() {
				err = insert()
			} else {
				err = request(templates[i])
			}
			if err != nil {
				return err
			}
		}
	}

	// Store probes: the full rdf:type range of the POS index, copied
	// out in column batches, on the frozen store and through a snapshot
	// whose delta also holds rdf:type triples.
	typeID, ok := loaded[0].TermDict().Lookup(rdf.IRI(rdf.Prefixes["rdf"] + "type"))
	if !ok {
		return errors.New("the document has no rdf:type triple")
	}
	sn := live.Snapshot()
	liveType, ok := sn.TermDict().Lookup(rdf.IRI(rdf.Prefixes["rdf"] + "type"))
	if !ok {
		sn.Close()
		return errors.New("the snapshot has no rdf:type triple")
	}
	for i := 0; i < scanRepeats; i++ {
		scanProbe(tr, spanScan, loaded[0], typeID)
		scanProbe(tr, spanScanMVCC, sn, liveType)
	}
	sn.Close()

	sp := tr.begin(spanPinLoop, "", nil)
	for i := 0; i < pinLoop; i++ {
		live.Snapshot().Close()
	}
	tr.end(sp)
	sp.count(pinLoop, 0)

	before := live.Stats()
	sp = tr.begin(spanMerge, "", nil)
	live.MergeNow()
	tr.end(sp)
	after := live.Stats()
	sp.count(int64(after.Merges-before.Merges), 0)
	return nil
}

// scanProbe times RangeIn plus CopyColumns over every triple with the
// given predicate.
func scanProbe(tr *tracer, name string, src store.Reader, pred store.ID) {
	var s, o [scanBatch]store.ID
	sp := tr.begin(name, "", nil)
	r := src.RangeIn(store.OrderPOS, store.NoID, pred, store.NoID)
	rows := 0
	for at := 0; at < len(r.Rows); {
		written, consumed := r.CopyColumns(at, scanBatch, s[:], nil, o[:])
		rows += written
		at += consumed
	}
	tr.end(sp)
	sp.count(int64(rows), 0)
}

// expectedCounts runs every query template once, untimed, over the
// document this process holds, and returns its row counts: the
// reference for seeds whose counts are not pinned.
func expectedCounts(ctx context.Context, st *store.Store, templates []template) (map[string]int64, error) {
	eng := engine.NewReader(st, engine.Native())
	counts := map[string]int64{}
	for _, t := range templates {
		if _, done := counts[t.query]; done || t.isInsert() {
			continue
		}
		q, err := sparql.Parse(t.text, rdf.Prefixes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.query, err)
		}
		n, err := eng.Count(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.query, err)
		}
		counts[t.query] = int64(n)
	}
	return counts, nil
}
