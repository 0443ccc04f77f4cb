// Package core is the public face of the SP2Bench reproduction: it ties
// the data generator, the RDF store, the SPARQL engines, the benchmark
// query catalog and the measurement harness together behind a small API.
//
// Typical usage:
//
//	stats, _ := core.GenerateFile("doc.nt", core.GeneratorParams(50_000))
//	db, _ := core.OpenFile("doc.nt", core.Native())
//	res, _ := db.Query(ctx, `SELECT ?yr WHERE { ... }`)
//
// Everything the facade returns comes from the underlying packages
// (internal/gen, internal/store, internal/engine, internal/queries,
// internal/harness), which remain usable directly for fine-grained
// control.
package core

import (
	"context"
	"io"
	"os"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/harness"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// GeneratorParams returns the paper-faithful generator configuration for
// the given triple limit (Section IV defaults, fixed seed).
func GeneratorParams(tripleLimit int64) gen.Params {
	return gen.DefaultParams(tripleLimit)
}

// Generate writes a DBLP-like document to w and returns its statistics.
func Generate(w io.Writer, p gen.Params) (*gen.Stats, error) {
	g, err := gen.New(p, w)
	if err != nil {
		return nil, err
	}
	return g.Generate()
}

// GenerateFile writes a document to path.
func GenerateFile(path string, p gen.Params) (*gen.Stats, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	stats, err := Generate(f, p)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return stats, err
}

// Options is the engine configuration type, re-exported so facade
// users need not import internal/engine for the common open-and-query
// path.
type Options = engine.Options

// Mem returns the in-memory engine configuration (scan-based matching,
// no optimizations) — the stand-in for the paper's ARQ/Sesame-memory
// family.
func Mem() engine.Options { return engine.Mem() }

// Native returns the native engine configuration (indexes, reordering,
// filter pushing, hash left joins, the batch executor) — the stand-in
// for the paper's Sesame-DB/Virtuoso family.
func Native() engine.Options { return engine.Native() }

// DB is a loaded document plus one engine configuration over it.
type DB struct {
	store  *store.Store
	engine *engine.Engine
}

// Open wraps an already-populated store. The caller hands the store
// over: engine construction freezes it, and the DB assumes sole
// ownership from then on.
//
// sp2b:locks=write freeze-on-construct is the Open contract; the store must
// not be shared with concurrent writers
func Open(st *store.Store, opts engine.Options) *DB {
	return &DB{store: st, engine: engine.New(st, opts)}
}

// OpenReader loads a document from r, auto-detecting binary snapshot
// (.sp2b) versus N-Triples input by the snapshot magic bytes.
func OpenReader(r io.Reader, opts engine.Options) (*DB, error) {
	st, _, _, err := snapshot.OpenStore(r)
	if err != nil {
		return nil, err
	}
	return Open(st, opts), nil
}

// OpenFile loads a document (N-Triples or snapshot, auto-detected) from
// path.
func OpenFile(path string, opts engine.Options) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenReader(f, opts)
}

// GenerateStore streams a generator run straight into a frozen store —
// no intermediate document — and returns the store alongside the
// generation statistics. It is the builder behind snapshot emission and
// sp2bserve -gen.
func GenerateStore(p gen.Params) (*store.Store, *gen.Stats, error) {
	st := store.New()
	pr, pw := io.Pipe()
	done := make(chan struct{})
	var stats *gen.Stats
	go func() {
		defer close(done)
		g, err := gen.New(p, pw)
		if err == nil {
			stats, err = g.Generate()
		}
		pw.CloseWithError(err)
	}()
	if _, err := st.Load(pr); err != nil {
		pr.CloseWithError(err) // unblock the generator if the load side failed
		<-done
		return nil, nil, err
	}
	<-done
	return st, stats, nil
}

// GenerateSnapshot generates a document per p and writes it to w in the
// binary snapshot format (see internal/snapshot), returning the
// generation statistics. A snapshot loads without re-parsing,
// re-interning or re-sorting, so it is the format of choice for data
// that will be loaded more than once.
func GenerateSnapshot(w io.Writer, p gen.Params) (*gen.Stats, error) {
	st, stats, err := GenerateStore(p)
	if err != nil {
		return nil, err
	}
	if err := snapshot.Write(w, st); err != nil {
		return nil, err
	}
	return stats, nil
}

// GenerateSnapshotFile writes a snapshot to path.
func GenerateSnapshotFile(path string, p gen.Params) (*gen.Stats, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	stats, err := GenerateSnapshot(f, p)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return stats, err
}

// Store exposes the underlying triple store.
func (db *DB) Store() *store.Store { return db.store }

// Engine exposes the underlying engine.
func (db *DB) Engine() *engine.Engine { return db.engine }

// Len returns the number of distinct triples loaded.
func (db *DB) Len() int { return db.store.Len() }

// Query parses src (with the standard SP2Bench prefixes available) and
// evaluates it.
func (db *DB) Query(ctx context.Context, src string) (*engine.Result, error) {
	q, err := sparql.Parse(src, rdf.Prefixes)
	if err != nil {
		return nil, err
	}
	return db.engine.Query(ctx, q)
}

// Count evaluates src and returns only the solution count.
func (db *DB) Count(ctx context.Context, src string) (int, error) {
	q, err := sparql.Parse(src, rdf.Prefixes)
	if err != nil {
		return 0, err
	}
	return db.engine.Count(ctx, q)
}

// Benchmark runs a catalog query by its paper identifier (e.g. "q8").
func (db *DB) Benchmark(ctx context.Context, id string) (*engine.Result, error) {
	q, ok := queries.ByID(id)
	if !ok {
		return nil, &UnknownQueryError{ID: id}
	}
	return db.engine.Query(ctx, q.Parse())
}

// UnknownQueryError reports a benchmark query identifier that is not in
// the catalog.
type UnknownQueryError struct{ ID string }

func (e *UnknownQueryError) Error() string {
	return "sp2bench: unknown benchmark query " + e.ID
}

// Queries returns the 17 benchmark queries in paper order.
func Queries() []queries.Query { return queries.All() }

// RunBenchmark executes the full measurement protocol.
func RunBenchmark(cfg harness.Config) (*harness.Report, error) {
	r, err := harness.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// DefaultBenchmarkConfig returns the laptop-scale protocol configuration.
func DefaultBenchmarkConfig() harness.Config { return harness.DefaultConfig() }
