// Package harness implements the SP2Bench benchmark protocol of Section
// VI: documents of increasing size, two engine families, per-query
// timeouts, and the five metrics the paper proposes (success rate, loading
// time, per-query performance, global performance as arithmetic/geometric
// means, memory consumption). Its renderers reproduce every table and
// figure of the paper's evaluation section.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"sp2bench/internal/client"
	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/queries"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
)

// Scale is one document size of the benchmark protocol.
type Scale struct {
	Name    string
	Triples int64
}

// DefaultScales returns the paper's document sizes up to 1M triples (the
// laptop-scale default; pass larger scales explicitly for the 5M/25M
// protocol).
func DefaultScales() []Scale {
	return []Scale{
		{"10k", 10_000},
		{"50k", 50_000},
		{"250k", 250_000},
		{"1M", 1_000_000},
	}
}

// PaperScales returns the full protocol of the paper (10k..25M).
func PaperScales() []Scale {
	return append(DefaultScales(), Scale{"5M", 5_000_000}, Scale{"25M", 25_000_000})
}

// ParseScales resolves a comma-separated list of scale names
// ("10k,50k,...") against the paper's protocol sizes.
func ParseScales(s string) ([]Scale, error) {
	known := map[string]Scale{}
	for _, sc := range PaperScales() {
		known[sc.Name] = sc
	}
	var out []Scale
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		sc, ok := known[name]
		if !ok {
			return nil, fmt.Errorf("harness: unknown scale %q (want one of 10k,50k,250k,1M,5M,25M)", name)
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: no scales given")
	}
	return out, nil
}

// EngineSpec names one engine configuration under test.
type EngineSpec struct {
	Name string
	Opts engine.Options
}

// DefaultEngines returns the two engine families the paper compares.
func DefaultEngines() []EngineSpec {
	return []EngineSpec{
		{Name: "mem", Opts: engine.Mem()},
		{Name: "native", Opts: engine.Native()},
	}
}

// ParseEngines resolves a comma-separated list of engine names
// ("mem,native"), each a name engine.ByName knows.
func ParseEngines(s string) ([]EngineSpec, error) {
	var out []EngineSpec
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		opts, err := engine.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("harness: unknown engine %q (want mem or native)", name)
		}
		out = append(out, EngineSpec{Name: name, Opts: opts})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: no engines given")
	}
	return out, nil
}

// Outcome classifies a query run, matching Table IV's legend.
type Outcome int

// The outcome classes of Table IV.
const (
	Success Outcome = iota
	Timeout
	MemoryExhausted
	ExecError
)

// Letter returns the Table IV shortcut (+, T, M, E).
func (o Outcome) Letter() string {
	switch o {
	case Success:
		return "+"
	case Timeout:
		return "T"
	case MemoryExhausted:
		return "M"
	default:
		return "E"
	}
}

func (o Outcome) String() string {
	switch o {
	case Success:
		return "Success"
	case Timeout:
		return "Timeout"
	case MemoryExhausted:
		return "MemoryExhausted"
	default:
		return "Error"
	}
}

// QueryRun is the measurement of one (engine, scale, query) cell.
type QueryRun struct {
	Query   string
	Engine  string
	Scale   string
	Outcome Outcome
	// Wall is elapsed time (the paper's tme); for in-memory engines it
	// includes document loading when Config.ChargeLoadToMem is set, as
	// the paper's in-memory engines parse the document per run.
	Wall time.Duration
	// User and Sys are process CPU time deltas (usr/sys).
	User, Sys time.Duration
	// Results is the solution count (valid on Success).
	Results int
	// MemPeak is the observed heap high watermark during the run.
	MemPeak uint64
	// Plan is the backend's physical plan description (engine backends:
	// BGP reorderings and per-step operator choices), captured once per
	// cell so reports explain the numbers they carry.
	Plan string
	// Trace is the EXPLAIN ANALYZE operator trace, captured on one extra
	// unmeasured run per cell when Config.Analyze is set.
	Trace *engine.Trace
	Err   string
}

// LoadStats records document loading (Section VI metric 2).
type LoadStats struct {
	Scale   string
	Engine  string
	Wall    time.Duration
	Triples int
	// Source names the loaded representation: "ntriples" for a text
	// parse (plus index construction for index-using engines) or
	// "snapshot" when a cached binary snapshot was reloaded — the
	// cold-start fast path this column makes visible.
	Source string
}

// Config tunes the benchmark protocol.
type Config struct {
	Scales  []Scale
	Engines []EngineSpec
	// QueryIDs restricts the query set (nil = all 17).
	QueryIDs []string
	// Timeout is the per-query limit (the paper uses 30 minutes; the
	// default here is laptop-friendly).
	Timeout time.Duration
	// MemLimitBytes aborts a query when the heap exceeds it (0 = off).
	MemLimitBytes uint64
	// Runs is the number of measured runs per cell (paper: 3).
	Runs int
	// PenaltySeconds ranks failed queries in the global-performance
	// means (paper: 3600).
	PenaltySeconds float64
	// ChargeLoadToMem adds document parse time to every in-memory-engine
	// query, mirroring engines that load the file per query.
	ChargeLoadToMem bool
	// Analyze captures an EXPLAIN ANALYZE trace per cell on one extra
	// run outside the measured window (engine backends only).
	Analyze bool
	// Endpoint, when non-empty, benchmarks a remote SPARQL 1.1 endpoint
	// at that URL instead of the in-process engines: no documents are
	// generated or loaded (the endpoint serves its own data) and every
	// query travels over HTTP. Scales and Engines are ignored; the
	// user/sys and memory columns describe this process (the driving
	// client), not the remote server.
	Endpoint string
	// Seed feeds the generator.
	Seed uint64
	// WorkDir, when set, holds the generated documents and enables the
	// cross-run cache: each document gets a probe-validated manifest
	// (generation stats, measured parse time) and a binary .sp2b
	// snapshot, so later runs skip generation and reload the frozen
	// store directly. Empty means a temp directory with caching off —
	// default invocations always regenerate and re-measure, keeping the
	// paper's loading table independent of hidden machine state.
	WorkDir string
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

// DefaultConfig returns a configuration that completes in minutes on a
// laptop while preserving the paper's shapes.
func DefaultConfig() Config {
	return Config{
		Scales:          DefaultScales(),
		Engines:         DefaultEngines(),
		Timeout:         15 * time.Second,
		Runs:            1,
		PenaltySeconds:  3600,
		ChargeLoadToMem: true,
		Seed:            1,
	}
}

// Report aggregates everything a benchmark run produced; the renderers in
// tables.go and figures.go turn it into the paper's tables and figures.
type Report struct {
	Config   Config
	GenStats map[string]*gen.Stats
	GenTime  map[string]time.Duration
	Loading  []LoadStats
	Runs     []QueryRun
	// Footprints records each loaded store's memory footprint by scale
	// (the sp2bbench -stats report), and Sources the representation each
	// scale's store was actually built from ("ntriples" or "snapshot").
	Footprints map[string]store.Footprint
	Sources    map[string]string
}

// Runner executes the benchmark protocol.
type Runner struct {
	cfg       Config
	docs      map[string]string       // scale name -> document path
	manifests map[string]*docManifest // scale name -> validated cache record
}

// NewRunner validates the configuration. Unknown query IDs are an
// error: a typo must not silently drop a query from the report.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Endpoint == "" {
		if len(cfg.Scales) == 0 {
			return nil, fmt.Errorf("harness: no scales configured")
		}
		if len(cfg.Engines) == 0 {
			return nil, fmt.Errorf("harness: no engines configured")
		}
	}
	if cfg.Timeout <= 0 {
		return nil, fmt.Errorf("harness: timeout must be positive")
	}
	for _, id := range cfg.QueryIDs {
		if _, ok := queries.ByID(id); !ok {
			return nil, fmt.Errorf("harness: unknown benchmark query %q", id)
		}
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	return &Runner{cfg: cfg, docs: map[string]string{}, manifests: map[string]*docManifest{}}, nil
}

func (r *Runner) progressf(format string, args ...any) {
	if r.cfg.Progress != nil {
		fmt.Fprintf(r.cfg.Progress, format, args...)
	}
}

// docManifest is the per-document cache record written next to each
// generated document (atomically, see writeFileAtomic). It is what
// lets later runs skip generation, parsing and sorting while staying
// honest: Probe fingerprints the generator's current behavior, Stats
// and GenNS preserve what the renderers need, and ParseNS preserves
// the measured text parse so the ChargeLoadToMem surcharge does not
// depend on cache state.
type docManifest struct {
	// Probe is the SHA-256 of a small (probeTriples) document generated
	// with this run's seed. Generation is incremental — a smaller
	// triple limit yields a byte-prefix of a larger document — so the
	// probe is literally a prefix of every cached document with this
	// seed, and any generator change invalidates the whole cache.
	Probe    string `json:"probe_sha256"`
	DocBytes int64  `json:"doc_bytes"`
	// TripleLimit is the requested document size; the probe cannot see
	// it (it fingerprints a fixed-size prefix), so reuse must also
	// check that the cached document was generated for the same limit.
	TripleLimit int64         `json:"triple_limit"`
	GenNS       time.Duration `json:"gen_ns"`
	// ParseNS is the measured N-Triples parse time; 0 until load() has
	// parsed the text once.
	ParseNS time.Duration `json:"parse_ns,omitempty"`
	Stats   *gen.Stats    `json:"stats"`
}

// probeTriples sizes the generator fingerprint document; ~milliseconds
// to produce.
const probeTriples = 2_000

func probeHash(seed uint64) (string, error) {
	p := gen.DefaultParams(probeTriples)
	p.Seed = seed
	h := sha256.New()
	g, err := gen.New(p, h)
	if err != nil {
		return "", err
	}
	if _, err := g.Generate(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

const manifestExt = ".manifest.json"

func readManifest(path string) (*docManifest, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var m docManifest
	if err := json.Unmarshal(b, &m); err != nil || m.Stats == nil {
		return nil, false
	}
	return &m, true
}

// writeManifest persists m atomically so parallel runs sharing a work
// directory never observe a torn record. It is a no-op when caching is
// disabled.
func (r *Runner) writeManifest(sc Scale, m *docManifest) {
	if !r.cacheEnabled() {
		return
	}
	b, err := json.Marshal(m)
	if err == nil {
		err = snapshot.WriteAtomic(r.docs[sc.Name]+manifestExt, func(w io.Writer) error {
			_, werr := w.Write(b)
			return werr
		})
	}
	if err != nil {
		r.progressf("could not write manifest for %s: %v\n", sc.Name, err)
	}
}

// cacheEnabled reports whether cross-run document/snapshot caching is
// active. It requires an explicitly configured WorkDir: with the
// implicit shared temp directory, a repeated default invocation would
// silently report snapshot-reload times in the paper's loading table
// based on hidden machine state — default runs must stay
// cache-independent and reproducible.
func (r *Runner) cacheEnabled() bool { return r.cfg.WorkDir != "" }

// Documents generates (or reuses) the benchmark documents and returns
// their paths, recording generation time and stats into the report. A
// document is reused only when caching is enabled (explicit WorkDir),
// its manifest's probe hash matches the generator's current output for
// this seed, and the file size matches — so a repo update that changes
// generated data can never serve stale benchmark input, while
// unchanged generators skip the (dominant at 5M/25M scales) generation
// cost entirely.
func (r *Runner) Documents(rep *Report) error {
	dir := r.cfg.WorkDir
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "sp2bench-docs")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if rep.GenStats == nil {
		rep.GenStats = map[string]*gen.Stats{}
		rep.GenTime = map[string]time.Duration{}
	}
	probe := ""
	if r.cacheEnabled() {
		var err error
		if probe, err = probeHash(r.cfg.Seed); err != nil {
			return fmt.Errorf("harness: generator probe: %w", err)
		}
	}
	for _, sc := range r.cfg.Scales {
		path := filepath.Join(dir, fmt.Sprintf("sp2b-%s-seed%d.nt", sc.Name, r.cfg.Seed))
		r.docs[sc.Name] = path
		if r.cacheEnabled() {
			if m, ok := readManifest(path + manifestExt); ok && m.Probe == probe && m.TripleLimit == sc.Triples {
				if fi, err := os.Stat(path); err == nil && fi.Size() == m.DocBytes {
					rep.GenStats[sc.Name] = m.Stats
					rep.GenTime[sc.Name] = m.GenNS
					r.manifests[sc.Name] = m
					r.progressf("reusing cached %s: %d triples (generated in %v on first run)\n",
						sc.Name, m.Stats.Triples, m.GenNS)
					continue
				}
			}
		}
		var (
			stats   *gen.Stats
			elapsed time.Duration
		)
		// The document is written via a temp sibling + rename: parallel
		// cold-cache runs sharing the directory must never interleave
		// generator output into one file.
		err := snapshot.WriteAtomic(path, func(w io.Writer) error {
			p := gen.DefaultParams(sc.Triples)
			p.Seed = r.cfg.Seed
			g, err := gen.New(p, w)
			if err != nil {
				return err
			}
			start := time.Now()
			stats, err = g.Generate()
			elapsed = time.Since(start)
			return err
		})
		if err != nil {
			return fmt.Errorf("harness: generating %s: %w", sc.Name, err)
		}
		rep.GenStats[sc.Name] = stats
		rep.GenTime[sc.Name] = elapsed
		m := &docManifest{Probe: probe, DocBytes: stats.Bytes, TripleLimit: sc.Triples, GenNS: elapsed, Stats: stats}
		r.manifests[sc.Name] = m
		r.writeManifest(sc, m)
		r.progressf("generated %s: %d triples in %v\n", sc.Name, stats.Triples, elapsed)
	}
	return nil
}

// Run executes the full protocol and returns the report. With
// Config.Endpoint set, the protocol runs against the remote endpoint
// instead of generating documents and driving in-process engines.
//
// sp2b:locks=write the runner is the sole owner of each loaded store; it freezes
// the store before building any engine and runs every query sequentially on this goroutine
func (r *Runner) Run() (*Report, error) {
	if r.cfg.Endpoint != "" {
		return r.runEndpoint()
	}
	rep := &Report{Config: r.cfg}
	if err := r.Documents(rep); err != nil {
		return nil, err
	}
	qs := r.querySet()
	rep.Footprints = map[string]store.Footprint{}
	rep.Sources = map[string]string{}
	for _, sc := range r.cfg.Scales {
		lr, err := r.load(sc)
		if err != nil {
			return nil, err
		}
		st := lr.store
		rep.Footprints[sc.Name] = st.Footprint()
		rep.Sources[sc.Name] = lr.source
		r.progressf("loaded %s from %s in %v (%s)\n",
			sc.Name, lr.source, (lr.parse + lr.freeze).Round(time.Millisecond), st.Footprint())
		for _, es := range r.cfg.Engines {
			// Index-using engines pay what this run actually paid
			// (snapshot reload on a cache hit); index-free engines are
			// modeled as re-parsing the text per query, so their column
			// always shows the text parse time regardless of cache state.
			loadWall := lr.textParse
			if es.Opts.UseIndexes {
				loadWall = lr.parse + lr.freeze
			}
			rep.Loading = append(rep.Loading, LoadStats{
				Scale: sc.Name, Engine: es.Name, Wall: loadWall, Triples: st.Len(), Source: source(es, lr),
			})
			// In-memory engines re-parse the document per query when
			// ChargeLoadToMem is set, mirroring engines without a
			// persisted index.
			charge := r.cfg.ChargeLoadToMem && !es.Opts.UseIndexes
			r.drive(rep, newEngineExecutor(es.Name, engine.New(st, es.Opts)), sc, qs, lr.textParse, charge)
		}
	}
	return rep, nil
}

// source labels one engine's LoadStats row: index-free engines are
// modeled on the text representation even when this run took the
// snapshot fast path.
func source(es EngineSpec, lr loadResult) string {
	if es.Opts.UseIndexes {
		return lr.source
	}
	return "ntriples"
}

// runEndpoint executes the protocol against Config.Endpoint. The single
// pseudo-scale "remote" stands in for the document sizes: the data
// lives wherever the endpoint keeps it, outside this process's control
// — exactly the situation when benchmarking a third-party store.
func (r *Runner) runEndpoint() (*Report, error) {
	rep := &Report{Config: r.cfg}
	qs := r.querySet()
	sc := Scale{Name: "remote"}
	r.drive(rep, newEndpointExecutor(client.New(r.cfg.Endpoint)), sc, qs, 0, false)
	return rep, nil
}

// drive runs the query set sequentially against one backend at one
// scale.
func (r *Runner) drive(rep *Report, ex Executor, sc Scale, qs []queries.Query, parseTime time.Duration, chargeLoad bool) {
	for _, q := range qs {
		run := r.runCell(ex, sc, q, parseTime, chargeLoad)
		rep.Runs = append(rep.Runs, run)
		r.progressf("%-7s %-16s %-5s %-8s %12v results=%d\n",
			sc.Name, ex.Name(), q.ID, run.Outcome, run.Wall.Round(time.Microsecond), run.Results)
	}
}

func (r *Runner) querySet() []queries.Query {
	if len(r.cfg.QueryIDs) == 0 {
		return queries.All()
	}
	out := make([]queries.Query, len(r.cfg.QueryIDs))
	for i, id := range r.cfg.QueryIDs {
		out[i], _ = queries.ByID(id) // NewRunner rejected unknown IDs
	}
	return out
}

// loadResult is what building one scale's store yielded. parse and
// freeze are the phases this run actually paid (for a snapshot hit:
// the reload as parse, zero freeze — the format stores the sorted
// indexes, so no index-construction phase is left). textParse is the
// measured N-Triples parse time, recorded alongside the snapshot cache
// so that the ChargeLoadToMem surcharge and the in-memory engines'
// loading rows stay the same whether or not this particular run hit
// the cache — benchmark tables must not depend on cache state.
type loadResult struct {
	store     *store.Store
	parse     time.Duration
	freeze    time.Duration
	textParse time.Duration
	source    string
}

// load builds the store for one scale. A binary snapshot cached next
// to the document is preferred — but only when Documents validated the
// scale's manifest this run (generator probe and document size match)
// and the manifest carries a measured parse time, so a hit is known to
// hold the same graph a re-parse would produce and the surcharge
// semantics never depend on cache state. On any miss the text is
// parsed, and the snapshot plus the parse measurement are recorded for
// the next run.
func (r *Runner) load(sc Scale) (loadResult, error) {
	snapPath := strings.TrimSuffix(r.docs[sc.Name], ".nt") + snapshot.Ext
	m := r.manifests[sc.Name]
	if r.cacheEnabled() && m != nil && m.ParseNS > 0 {
		start := time.Now()
		st, err := snapshot.ReadFile(snapPath)
		if err == nil {
			return loadResult{store: st, parse: time.Since(start), textParse: m.ParseNS, source: "snapshot"}, nil
		}
		r.progressf("snapshot cache %s unreadable (%v); re-parsing\n", snapPath, err)
	}

	f, err := os.Open(r.docs[sc.Name])
	if err != nil {
		return loadResult{}, err
	}
	defer f.Close()
	st := store.New()
	start := time.Now()
	if _, err := st.Ingest(f); err != nil {
		return loadResult{}, err
	}
	parse := time.Since(start)
	start = time.Now()
	st.Freeze()
	freeze := time.Since(start)
	// Cache the frozen store and the parse measurement for the next
	// run; a failure here only costs the next run its fast path.
	if r.cacheEnabled() {
		if err := snapshot.WriteFile(snapPath, st); err != nil {
			r.progressf("could not cache snapshot %s: %v\n", snapPath, err)
		} else if m != nil {
			m.ParseNS = parse
			r.writeManifest(sc, m)
		}
	}
	return loadResult{store: st, parse: parse, freeze: freeze, textParse: parse, source: "ntriples"}, nil
}

// runCell measures one (backend, scale, query) cell over cfg.Runs runs
// and keeps the average of the successful protocol (the paper averages
// three runs).
func (r *Runner) runCell(ex Executor, sc Scale, q queries.Query, parseTime time.Duration, chargeLoad bool) QueryRun {
	var agg QueryRun
	agg.Query, agg.Engine, agg.Scale = q.ID, ex.Name(), sc.Name
	if exp, ok := ex.(explainer); ok {
		if plan, ok := exp.Explain(q); ok {
			agg.Plan = plan
		}
	}
	if r.cfg.Analyze {
		if an, ok := ex.(analyzer); ok {
			// The traced run is extra and unmeasured: tracing overhead,
			// however small, never enters the protocol's numbers.
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
			if _, tr, err := an.Analyze(ctx, q); err == nil {
				agg.Trace = tr
			}
			cancel()
		}
	}
	var totalWall, totalUser, totalSys time.Duration
	for i := 0; i < r.cfg.Runs; i++ {
		one := r.runOnce(ex, q)
		if one.Outcome != Success {
			one.Query, one.Engine, one.Scale = q.ID, ex.Name(), sc.Name
			one.Plan = agg.Plan
			if chargeLoad {
				one.Wall += parseTime
			}
			return one
		}
		totalWall += one.Wall
		totalUser += one.User
		totalSys += one.Sys
		agg.Results = one.Results
		if one.MemPeak > agg.MemPeak {
			agg.MemPeak = one.MemPeak
		}
	}
	agg.Outcome = Success
	agg.Wall = totalWall / time.Duration(r.cfg.Runs)
	agg.User = totalUser / time.Duration(r.cfg.Runs)
	agg.Sys = totalSys / time.Duration(r.cfg.Runs)
	if chargeLoad {
		agg.Wall += parseTime
	}
	return agg
}

// runOnce measures one execution with its own timeout, memory watcher
// and CPU deltas: process-wide readings are per-run figures because the
// protocol runs one query at a time.
func (r *Runner) runOnce(ex Executor, q queries.Query) QueryRun {
	var run QueryRun
	// Client-side setup (the engine backend's parse) happens before the
	// clock starts: the protocol measures evaluation.
	if p, ok := ex.(preparer); ok {
		if err := p.Prepare(q); err != nil {
			run.Outcome = ExecError
			run.Err = err.Error()
			return run
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
	defer cancel()
	memHit, memPeak := watchMemory(ctx, cancel, r.cfg.MemLimitBytes)

	startU, startS := cpuTimes()
	start := time.Now()
	n, err := ex.Execute(ctx, q)
	run.Wall = time.Since(start)
	endU, endS := cpuTimes()
	run.User, run.Sys = endU-startU, endS-startS
	run.MemPeak = memPeak.Load()

	var remoteTimeout *client.HTTPError
	switch {
	case err == nil:
		run.Outcome = Success
		run.Results = n
	case memHit.Load():
		run.Outcome = MemoryExhausted
		run.Err = "memory limit exceeded"
	case ctx.Err() != nil:
		run.Outcome = Timeout
		run.Err = ctx.Err().Error()
	case errors.As(err, &remoteTimeout) && remoteTimeout.StatusCode == http.StatusServiceUnavailable:
		// The endpoint's own budget expired first (sp2bserve answers
		// 503 for that) — the same Timeout outcome the in-process
		// engines get, just enforced on the other side of the wire.
		run.Outcome = Timeout
		run.Err = err.Error()
	default:
		run.Outcome = ExecError
		run.Err = err.Error()
	}
	return run
}

// watchMemory samples the heap high watermark and cancels the query when
// the limit is exceeded, classifying the paper's "Memory Exhaustion"
// outcome.
func watchMemory(ctx context.Context, cancel context.CancelFunc, limit uint64) (*atomic.Bool, *atomic.Uint64) {
	hit := &atomic.Bool{}
	peak := &atomic.Uint64{}
	// The first sample is synchronous so that even runs shorter than a
	// tick report a peak, and a tiny limit trips before the run starts
	// rather than racing it.
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	peak.Store(ms0.HeapAlloc)
	if limit > 0 && ms0.HeapAlloc > limit {
		hit.Store(true)
		cancel()
		return hit, peak
	}
	// sp2b:leaks=ok bounded by ctx: the ticker loop returns on ctx.Done, which the harness always cancels
	go func() {
		var ms runtime.MemStats
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
				if limit > 0 && ms.HeapAlloc > limit {
					hit.Store(true)
					cancel()
					return
				}
			}
		}
	}()
	return hit, peak
}

// SortRuns orders runs by (scale order, engine, query) for stable output.
func (rep *Report) SortRuns() {
	order := map[string]int{}
	for i, sc := range rep.Config.Scales {
		order[sc.Name] = i
	}
	sort.SliceStable(rep.Runs, func(i, j int) bool {
		a, b := rep.Runs[i], rep.Runs[j]
		if order[a.Scale] != order[b.Scale] {
			return order[a.Scale] < order[b.Scale]
		}
		if a.Engine != b.Engine {
			return a.Engine < b.Engine
		}
		return a.Query < b.Query
	})
}
