package shard

import (
	"strconv"
	"sync"
	"time"

	"sp2bench/internal/store"
)

// Source is a per-shard triple source: a frozen *store.Store, an
// mvcc.Snapshot, or a Remote proxying a shard server.
type Source = store.Reader

// Reader implements store.Reader over N shard sources by routing and
// gathering: a bound-subject pattern is answered by the single owning
// shard (the partitioner is deterministic on the subject term), and an
// unbound-subject pattern scatters to every shard and merges the
// per-shard runs — each already sorted in the requested index order —
// back into one sorted run. The merge folds each shard's residual
// constraints in, so downstream operators (merge join, the vectorized
// CopyColumns scan) consume gathered ranges exactly as they would a
// single store's.
//
// Gathered runs are cached per pattern under a row budget, so a query
// that scans the same range from several operators pays the merge once.
type Reader struct {
	parts Partitioner
	dict  store.TermSource
	srcs  []Source

	mu        sync.Mutex
	cache     map[rangeKey][]store.EncTriple
	cacheRows int // rows held by cache
	cacheCap  int // row budget; <0 = not yet computed
}

type rangeKey struct {
	ord     store.Order
	s, p, o store.ID
}

func newReader(parts Partitioner, dict store.TermSource, srcs []Source) *Reader {
	return &Reader{
		parts:    parts,
		dict:     dict,
		srcs:     srcs,
		cache:    map[rangeKey][]store.EncTriple{},
		cacheCap: -1,
	}
}

// NewReader builds a scatter-gather Reader over explicit sources; the
// partitioner must be the one that placed the shards' triples, and every
// source's IDs must resolve in dict (the global dictionary contract).
// Most callers want Set.Reader or Set.Snapshot instead.
func NewReader(parts Partitioner, dict store.TermSource, srcs []Source) *Reader {
	return newReader(parts, dict, srcs)
}

// ShardCount reports the fan-out width; the planner's EXPLAIN uses it
// for scatter costing notes.
func (r *Reader) ShardCount() int { return len(r.srcs) }

// TermDict returns the shared global dictionary.
func (r *Reader) TermDict() store.TermSource { return r.dict }

// Len returns the total triple count across shards.
func (r *Reader) Len() int {
	n := 0
	for _, src := range r.srcs {
		n += src.Len()
	}
	return n
}

// Triples returns the full dataset in SPO component order, gathered
// (and cached) from all shards.
func (r *Reader) Triples() []store.EncTriple {
	if len(r.srcs) == 1 {
		return r.srcs[0].Triples() // its range may be two runs
	}
	return r.RangeIn(store.OrderSPO, store.NoID, store.NoID, store.NoID).Rows
}

// Range returns the matching range under the ordering ChooseOrder
// selects.
func (r *Reader) Range(sub, pred, obj store.ID) store.IndexRange {
	return r.RangeIn(store.ChooseOrder(sub != store.NoID, pred != store.NoID, obj != store.NoID), sub, pred, obj)
}

// Iterate streams the matching triples in index order.
func (r *Reader) Iterate(sub, pred, obj store.ID) *store.Iterator {
	return r.Range(sub, pred, obj).Iterator()
}

// RangeIn returns the range matching the pattern within one index
// ordering. Bound-subject patterns route to the owning shard; anything
// else scatters and gathers. The gathered range has the pattern's bound
// prefix as Lead and no residual: residual constraints are applied
// during the merge, so Rows is dense.
func (r *Reader) RangeIn(ord store.Order, sub, pred, obj store.ID) store.IndexRange {
	if len(r.srcs) == 1 {
		return r.srcs[0].RangeIn(ord, sub, pred, obj)
	}
	if sub != store.NoID {
		// Every triple with this subject lives on its hash shard: a
		// single-shard route, no gather.
		metricRouted.Inc()
		return r.srcs[r.parts.ShardOf(r.dict.Term(sub))].RangeIn(ord, sub, pred, obj)
	}

	key := rangeKey{ord, sub, pred, obj}
	lead := boundPrefix(ord, sub, pred, obj)
	r.mu.Lock()
	if rows, ok := r.cache[key]; ok {
		r.mu.Unlock()
		metricGatherCacheHits.Inc()
		return store.IndexRange{Ord: ord, Rows: rows, Lead: lead}
	}
	r.mu.Unlock()

	metricScatters.Inc()
	ranges := r.scatter(ord, sub, pred, obj)

	// Single-owner fast path: when only one shard holds matching rows
	// (e.g. a predicate that routed entirely to one shard), its range is
	// returned as-is — zero copy, residuals intact, nothing to merge.
	owner := -1
	for i := range ranges {
		if ranges[i].Len() == 0 {
			continue
		}
		if owner >= 0 {
			owner = -2
			break
		}
		owner = i
	}
	if owner != -2 {
		if owner < 0 {
			return store.IndexRange{Ord: ord, Lead: lead}
		}
		return ranges[owner]
	}

	rows := mergeRuns(ranges)
	metricGatherRows.Observe(float64(len(rows)))

	r.mu.Lock()
	if r.cacheCap < 0 {
		r.cacheCap = 4 * r.Len() // ≈ one extra index worth of rows
	}
	if _, ok := r.cache[key]; !ok && r.cacheRows+len(rows) <= r.cacheCap {
		r.cache[key] = rows
		r.cacheRows += len(rows)
	}
	r.mu.Unlock()
	return store.IndexRange{Ord: ord, Rows: rows, Lead: lead}
}

// scatter fans the scan out to every shard and waits for all of them.
// A panicking shard call (remote fault mapping panics a typed error)
// is re-raised on the calling goroutine after the others finish.
func (r *Reader) scatter(ord store.Order, sub, pred, obj store.ID) []store.IndexRange {
	out := make([]store.IndexRange, len(r.srcs))
	panics := make([]any, len(r.srcs))
	var wg sync.WaitGroup
	for i := range r.srcs {
		wg.Add(1)
		// sp2b:leaks=ok joined by wg.Wait below; scatter never returns with the goroutine running
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[i] = p
				}
			}()
			start := time.Now()
			out[i] = r.srcs[i].RangeIn(ord, sub, pred, obj)
			metricShardScanSeconds.With(strconv.Itoa(i)).Observe(time.Since(start).Seconds())
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}

// mergeRuns merges the per-shard runs — each sorted in the same index
// component order — into one sorted run, dropping rows that fail their
// shard's residual constraints. A shard that is an MVCC snapshot
// contributes both runs of its range. Shards partition the dataset, so
// the merge needs no deduplication. The head count is at most twice the
// shard count (small), so a linear min-scan beats a heap.
func mergeRuns(ranges []store.IndexRange) []store.EncTriple {
	type run struct {
		rows []store.EncTriple
		filt store.EncTriple
		pos  int
	}
	runs := make([]run, 0, len(ranges))
	total := 0
	for _, rg := range ranges {
		for _, rows := range [][]store.EncTriple{rg.Rows, rg.Delta} {
			if len(rows) > 0 {
				runs = append(runs, run{rows: rows, filt: rg.Filt})
				total += len(rows)
			}
		}
	}
	skip := func(ru *run) {
		f := ru.filt
		if f[0] == store.NoID && f[1] == store.NoID && f[2] == store.NoID {
			return
		}
		for ru.pos < len(ru.rows) {
			row := ru.rows[ru.pos]
			if (f[0] == store.NoID || row[0] == f[0]) &&
				(f[1] == store.NoID || row[1] == f[1]) &&
				(f[2] == store.NoID || row[2] == f[2]) {
				return
			}
			ru.pos++
		}
	}
	for i := range runs {
		skip(&runs[i])
	}
	out := make([]store.EncTriple, 0, total)
	for {
		best := -1
		for i := range runs {
			if runs[i].pos >= len(runs[i].rows) {
				continue
			}
			if best < 0 || store.CompareEnc(runs[i].rows[runs[i].pos], runs[best].rows[runs[best].pos]) < 0 {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, runs[best].rows[runs[best].pos])
		runs[best].pos++
		skip(&runs[best])
	}
}

// boundPrefix returns the length of the pattern's bound prefix in ord's
// component order — the Lead of a gathered range.
func boundPrefix(ord store.Order, sub, pred, obj store.ID) int {
	key := ord.Permute(store.EncTriple{sub, pred, obj})
	n := 0
	for n < 3 && key[n] != store.NoID {
		n++
	}
	return n
}

// Count returns the number of matching triples: a single-shard route
// for bound subjects, a scatter-sum otherwise.
func (r *Reader) Count(sub, pred, obj store.ID) int {
	if len(r.srcs) == 1 {
		return r.srcs[0].Count(sub, pred, obj)
	}
	if sub != store.NoID {
		metricRouted.Inc()
		return r.srcs[r.parts.ShardOf(r.dict.Term(sub))].Count(sub, pred, obj)
	}
	metricScatters.Inc()
	counts := make([]int, len(r.srcs))
	panics := make([]any, len(r.srcs))
	var wg sync.WaitGroup
	for i := range r.srcs {
		wg.Add(1)
		// sp2b:leaks=ok joined by wg.Wait below; Count never returns with the goroutine running
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[i] = p
				}
			}()
			counts[i] = r.srcs[i].Count(sub, pred, obj)
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// Optimizer statistics. Estimates, not contracts (the Reader interface
// says so): subject-side sums are exact because subjects are disjoint
// across shards; object-side sums may overcount objects that appear on
// several shards, which only makes the optimizer a little conservative.

func (r *Reader) PredCardinality(p store.ID) int {
	n := 0
	for _, src := range r.srcs {
		n += src.PredCardinality(p)
	}
	return n
}

func (r *Reader) DistinctSubjects(p store.ID) int {
	n := 0
	for _, src := range r.srcs {
		n += src.DistinctSubjects(p)
	}
	return n
}

func (r *Reader) DistinctObjects(p store.ID) int {
	n := 0
	for _, src := range r.srcs {
		n += src.DistinctObjects(p)
	}
	return n
}

func (r *Reader) TotalDistinctSubjects() int {
	n := 0
	for _, src := range r.srcs {
		n += src.TotalDistinctSubjects()
	}
	return n
}

func (r *Reader) TotalDistinctObjects() int {
	n := 0
	for _, src := range r.srcs {
		n += src.TotalDistinctObjects()
	}
	return n
}

func (r *Reader) DistinctPredicates() int {
	m := 0
	for _, src := range r.srcs {
		if d := src.DistinctPredicates(); d > m {
			m = d
		}
	}
	return m
}

var _ store.Reader = (*Reader)(nil)
