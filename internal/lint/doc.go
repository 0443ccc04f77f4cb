// Package lint is sp2blint's analysis suite: five analyzers encoding
// this repository's concurrency and correctness invariants, plus the
// minimal driver machinery (package loading, type checking, directive
// parsing, diagnostic reporting) they run on.
//
// The analyzers mechanize rules that previous PRs stated only in
// comments and enforced only by a handful of race tests:
//
//   - goroutinecleanup: every `go` statement must have a reachable join
//     — a WaitGroup/errgroup Wait in the spawning function, a channel
//     the spawner receives from, or a WaitGroup-field shutdown method
//     that is wired up elsewhere (the vecParallel pattern). ASK/LIMIT
//     early exits must never leak workers.
//   - lockdiscipline: store-mutating calls on shared stores may only
//     appear in functions annotated `// sp2b:locks=write`; functions
//     annotated `// sp2b:locks=read` must not mutate or write-lock.
//   - frozenmutation: fields of store.Store and store.Dict may only be
//     written by Freeze/Ingest/seal or functions annotated
//     `// sp2b:mutates-store`; aliased frozen arrays (Index, Terms,
//     IndexRange.Rows/Delta) must never be written through.
//   - idequality: functions annotated `// sp2b:valuecmp` (SPARQL value
//     semantics: FILTER =, value-keyed hash joins) must not compare or
//     hash dictionary IDs — ID equality is term identity, which is
//     strictly finer than value equality ("1" vs "01").
//   - determinism: the generator and its distribution model must not
//     use time.Now, math/rand, or bare map iteration — the golden
//     SHA-256 test depends on bit-identical output.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer/Pass/Diagnostic, `// want` golden tests) but is built on
// the standard library alone: packages are enumerated with
// `go list -export -deps -json`, dependencies import from compiler
// export data, and the analyzed packages are type-checked from source.
// This keeps the suite runnable in hermetic environments where x/tools
// cannot be fetched; see docs/ANALYZERS.md for the full contract and
// how to suppress individual diagnostics.
package lint
