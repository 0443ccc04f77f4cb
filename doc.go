// Package sp2bench is a from-scratch Go reproduction of "SP²Bench: A
// SPARQL Performance Benchmark" (Schmidt, Hornung, Lausen, Pinkel;
// ICDE 2009): the DBLP-like RDF data generator, the 17 benchmark queries,
// the measurement protocol, and the substrates they need — an RDF data
// model and N-Triples codec, an indexed triple store, a SPARQL 1.0 parser
// and algebra, and two query engine configurations standing in for the
// paper's in-memory and native engine families.
//
// Beyond the in-process reproduction, the repo speaks the SPARQL 1.1
// Protocol in both directions, restoring the benchmark's cross-engine
// posture: internal/server exposes an engine as an HTTP endpoint with
// content negotiation over the standard result formats, internal/client
// drives any such endpoint, internal/results implements the SPARQL
// JSON/XML/CSV/TSV result formats the two share, and the harness's
// Executor abstraction lets the measurement pipeline benchmark a remote
// endpoint exactly as it benchmarks the built-in engines.
//
// The native engine evaluates joins through a statistics-driven
// physical-operator layer (internal/engine join.go, parallel.go): per
// join step the optimizer picks an index nested loop, a merge join over
// two index ranges co-sorted on the shared variable, or a hash join
// built on the smaller estimated side — including the hashed
// uncorrelated block that turns Q5a's FILTER-mediated cross product
// from quadratic to linear — and partitions the anchor pattern's range
// across GOMAXPROCS workers with an order-preserving merge. Every
// decision is visible: sp2bquery -explain prints it, and benchmark
// reports record it per measured cell.
//
// Cold starts are a first-class concern at benchmark scales:
// internal/store parses N-Triples in parallel across GOMAXPROCS
// workers, and internal/snapshot persists a frozen store in the binary
// .sp2b format — front-coded dictionary, delta-encoded pre-sorted
// indexes, CRC-checked — which every tool auto-detects and reloads
// without re-parsing, re-interning or re-sorting.
//
// sp2bbench runs the paper's sequential sweep, one query at a time, in
// process or against any SPARQL endpoint; every run can be written as a
// schema-versioned JSON report carrying per-cell plans and the paper's
// arithmetic and geometric means (see docs/ARCHITECTURE.md and
// docs/QUERIES.md). Served traffic — concurrent clients, an insert
// stream against sp2bserve -updates, per-template latency — is measured
// by the service benchmark in bench/, which drives sp2bserve over HTTP
// and is how performance changes are judged.
//
// The implementation lives under internal/; cmd/ holds the sp2bgen,
// sp2bquery, sp2bbench and sp2bserve executables; the Example functions
// of internal/engine and internal/mvcc are walk-throughs whose output
// go test checks; bench_test.go regenerates every table and
// figure of the paper's evaluation section as Go benchmarks.
package sp2bench
