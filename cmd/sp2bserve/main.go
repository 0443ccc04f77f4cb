// Command sp2bserve serves an SP2Bench document as a SPARQL 1.1
// Protocol endpoint, turning the benchmark's in-process engines into a
// networked triple store that any protocol-speaking client — curl,
// sp2bbench -endpoint, or a third-party driver — can query.
//
// Usage:
//
//	sp2bserve -d doc.nt                          # serve doc.nt on :8080
//	sp2bserve -d doc.sp2b                        # serve a binary snapshot (auto-detected)
//	sp2bserve -gen 50000                         # generate 50k triples in memory and serve them
//	sp2bserve -d doc.nt -engine native           # tuple-at-a-time executor instead of the batch one
//	sp2bserve -d doc.nt -addr :9090 -engine mem  # in-memory engine family
//	sp2bserve -d doc.nt -timeout 30s -max-concurrent 16
//	sp2bserve -gen 50000 -debug-addr :6060       # pprof + /metrics side listener
//
// Queries run on the native-vec engine by default: the batch-at-a-time
// executor with partitioned parallel scans, falling back per query to
// the tuple operators for forms it does not cover (-engine native
// serves everything with the tuple operators, -engine mem with the
// paper's unindexed in-memory family).
//
// The -d input may be N-Triples text or an .sp2b snapshot (written by
// sp2bgen -o doc.sp2b); the format is sniffed from the magic bytes, and
// snapshots skip parsing and index construction entirely — the
// difference between seconds and milliseconds of startup at benchmark
// scales.
//
// The query operation is served on / and /sparql (GET ?query=, POST
// form, POST application/sparql-query); appending ?analyze=1 answers
// with an EXPLAIN ANALYZE trace document instead of the result set.
// /metrics exposes the process metrics in Prometheus text format,
// /stats reports the store footprint as JSON, and /healthz answers
// probes: readiness by default (503 with {"status":"loading"} until the
// store is queryable — the listener comes up before the document
// loads), liveness with ?live=1 (200 whenever the process accepts
// connections). With -debug-addr a side listener also mounts
// net/http/pprof under /debug/pprof/, expvar under /debug/vars and a
// second /metrics, so profiling stays off the serving port.
// SIGINT/SIGTERM drain in-flight queries before exit.
//
// With -updates the store becomes mutable: POST an application/n-triples
// body to /update and the statements are committed as one atomic batch
// to a generational MVCC store (answering {"inserted": n, "triples":
// total}). Queries pin a snapshot of one dataset version and never block
// on writers; a background merger compacts accumulated inserts into a
// new frozen generation. /stats then recomputes the footprint per
// request and reports the generation number and base/delta split. The
// service benchmark's mixed-update-250k workload (go run ./bench) drives
// this mode.
//
// Three cluster modes serve a sharded dataset (sp2bgen -shards):
//
//	sp2bserve -shards cluster/                   # in-process scatter-gather over a shard directory
//	sp2bserve -d cluster/shard-00-of-04.sp2b     # shard server: identity sniffed from the file name,
//	                                             # mounts the /shard/* scan protocol next to /sparql
//	sp2bserve -shard-endpoints http://a/sparql,http://b/sparql,...
//	                                             # remote coordinator over shard servers, in shard order
//
// Coordinator admission verifies shard identity, order, partitioner
// version and the global dictionary hash before serving; a shard
// failing mid-query answers 502 naming the culprit. -shard-timeout
// bounds each per-shard call independently of the query deadline.
// Coordinator modes are read-only (-updates is rejected).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"sp2bench/internal/core"
	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/obs"
	"sp2bench/internal/server"
	"sp2bench/internal/shard"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
)

// Store footprint gauges: set once after load (and on /stats refresh for
// MVCC deployments the mvcc package's own gauges track the live state).
var (
	gTriples = obs.Default.Gauge("sp2b_store_triples",
		"Triples in the loaded store at startup.")
	gTerms = obs.Default.Gauge("sp2b_store_terms",
		"Dictionary terms in the loaded store at startup.")
)

// sp2b:locks=write engine.New's defensive Freeze writes the store once at
// startup, before any handler can read it; after that the store is
// immutable (the mutable path hands ownership to mvcc.New instead).
func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		debugAddr = flag.String("debug-addr", "", "side listener for /debug/pprof/, /debug/vars and /metrics (empty = off)")
		data      = flag.String("d", "", "document to serve: N-Triples or .sp2b snapshot")
		genSize   = flag.Int64("gen", 0, "generate a document of this many triples instead of loading one")
		engName   = flag.String("engine", "native-vec", "engine: native-vec (batch executor), native (tuple executor) or mem")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-query evaluation limit (0 = none)")
		maxConc   = flag.Int("max-concurrent", 2*runtime.GOMAXPROCS(0), "max in-flight queries (0 = unlimited)")
		seed      = flag.Uint64("seed", 1, "generator seed (with -gen)")
		updates   = flag.Bool("updates", false, "serve the insert operation on POST /update (store becomes mutable)")
		shardDir  = flag.String("shards", "", "serve a shard directory (sp2bgen -shards) as an in-process scatter-gather coordinator")
		shardEps  = flag.String("shard-endpoints", "", "comma-separated shard server URLs, in shard order: serve as a remote scatter-gather coordinator")
		shardTO   = flag.Duration("shard-timeout", 15*time.Second, "per-call timeout against remote shards (with -shard-endpoints; 0 = none)")
		logJSON   = flag.Bool("log-json", false, "log requests as JSON lines (log/slog) instead of text")
		quiet     = flag.Bool("quiet", false, "suppress per-request logging")
	)
	flag.Parse()

	modes := 0
	for _, set := range []bool{*data != "", *genSize != 0, *shardDir != "", *shardEps != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "sp2bserve: need exactly one of -d <doc.nt>, -gen <triples>, -shards <dir> or -shard-endpoints <url,...>")
		flag.Usage()
		os.Exit(2)
	}
	coordinator := *shardDir != "" || *shardEps != ""
	if coordinator && *updates {
		fatal(errors.New("coordinator modes are read-only: -updates is not supported with -shards or -shard-endpoints"))
	}

	var opts engine.Options
	switch *engName {
	case "native-vec":
		opts = core.NativeVec()
	case "native":
		opts = core.Native()
	case "mem":
		opts = core.Mem()
	default:
		fatal(fmt.Errorf("unknown engine %q (want one of native-vec, native, mem)", *engName))
	}

	// The listener comes up before the document loads so orchestrators
	// can probe readiness: /healthz answers 503 until app holds the real
	// mux, every other route 503s with the same body.
	obs.PublishExpvar()
	var app atomic.Pointer[http.ServeMux]
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			serveHealth(w, r, app.Load() != nil)
			return
		}
		mux := app.Load()
		if mux == nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"status": "loading"})
			return
		}
		mux.ServeHTTP(w, r)
	})
	srv := &http.Server{Addr: *addr, Handler: root}
	errc := make(chan error, 2)
	go func() { errc <- srv.ListenAndServe() }()
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: debugMux()}
		go func() { errc <- dbg.ListenAndServe() }()
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "sp2bserve: debug listener (pprof, /metrics) on %s\n", *debugAddr)
	}

	var (
		st *store.Store
		rd store.Reader // coordinator modes: a scatter-gather shard.Reader
	)
	if coordinator {
		r, err := openShards(*shardDir, *shardEps, *shardTO)
		if err != nil {
			fatal(err)
		}
		rd = r
	} else {
		s, err := loadStore(*data, *genSize, *seed)
		if err != nil {
			fatal(err)
		}
		st = s
	}
	if st != nil {
		fp := st.Footprint()
		gTriples.Set(int64(fp.Triples))
		gTerms.Set(int64(fp.Terms))
	} else {
		gTriples.Set(int64(rd.Len()))
		gTerms.Set(int64(rd.TermDict().Len()))
	}

	cfg := server.Config{Timeout: *timeout, MaxConcurrent: *maxConc}
	if !*quiet {
		if *logJSON {
			cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		} else {
			cfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
	}
	var live *mvcc.Store
	switch {
	case coordinator:
		cfg.Engine = engine.NewReader(rd, opts)
	case *updates:
		live = mvcc.New(st, mvcc.MergePolicy{})
		live.Logf = cfg.Logf
		defer live.Close()
		cfg.Live = live
		cfg.Opts = opts
	default:
		cfg.Engine = engine.New(st, opts)
	}
	h, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}

	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("/sparql", h)
	mux.Handle("/metrics", obs.Handler())
	switch {
	case coordinator:
		mux.Handle("/stats", coordinatorStats(rd))
	case *updates:
		mux.Handle("/update", server.UpdateHandler(live, cfg.Logf))
		mux.Handle("/stats", server.LiveStatsHandler(live))
	default:
		mux.Handle("/stats", server.StatsHandler(st))
		// Immutable single-store deployments double as shard servers:
		// the data plane a coordinator scatters over. Identity (shard
		// index and count) is sniffed from the served file's name.
		idx, cnt := -1, 0
		if i, n, ok := shard.ParseShardFileName(filepath.Base(*data)); ok {
			idx, cnt = i, n
			fmt.Fprintf(os.Stderr, "sp2bserve: serving shard %d of %d\n", idx, cnt)
		}
		mux.Handle("/shard/", server.ShardHandler(st, idx, cnt))
	}
	app.Store(mux) // ready: /healthz flips to 200

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if st != nil {
		fmt.Fprintf(os.Stderr, "sp2bserve: store footprint: %s\n", st.Footprint())
	} else if sr, ok := rd.(*shard.Reader); ok {
		fmt.Fprintf(os.Stderr, "sp2bserve: coordinating %d shards, %d triples, %d terms\n", sr.ShardCount(), rd.Len(), rd.TermDict().Len())
	}
	fmt.Fprintf(os.Stderr, "sp2bserve: %s engine, listening on %s\n", *engName, *addr)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "sp2bserve: draining in-flight queries")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// serveHealth answers /healthz. The default is the readiness check
// (ready once the store is loaded and query routes are live); ?live=1
// is the liveness check, true as long as the process accepts
// connections.
func serveHealth(w http.ResponseWriter, r *http.Request, ready bool) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("live") != "" || ready {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]string{"status": "loading"})
}

// debugMux mounts the profiling and metrics surface served on the side
// listener: net/http/pprof (explicitly, to keep it off the serving
// mux), expvar, and the Prometheus exposition.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", obs.Handler())
	return mux
}

// loadStore builds the store from a document file (N-Triples or .sp2b
// snapshot, auto-detected by magic bytes) or, with -gen, from an
// in-memory generator run (handy for smoke tests and demos: no file
// ever touches disk).
func loadStore(path string, genSize int64, seed uint64) (*store.Store, error) {
	start := time.Now()
	if path != "" {
		st, isSnap, _, err := snapshot.OpenStoreFile(path)
		if err != nil {
			return nil, err
		}
		source := "ntriples"
		if isSnap {
			source = "snapshot"
		}
		fmt.Fprintf(os.Stderr, "sp2bserve: loaded %s (%s) in %v\n", path, source, time.Since(start).Round(time.Millisecond))
		return st, nil
	}
	p := gen.DefaultParams(genSize)
	p.Seed = seed
	st, _, err := core.GenerateStore(p)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "sp2bserve: generated %d triples in %v\n", st.Len(), time.Since(start).Round(time.Millisecond))
	return st, nil
}

// openShards builds the coordinator's scatter-gather reader: an
// in-process one over a shard directory, or a remote one over shard
// server endpoints (admission verifies shard order and the global
// dictionary contract — see shard.OpenRemote).
func openShards(dir, endpoints string, timeout time.Duration) (*shard.Reader, error) {
	start := time.Now()
	if dir != "" {
		set, err := shard.Open(dir)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "sp2bserve: opened %d shards from %s in %v\n",
			set.Shards(), dir, time.Since(start).Round(time.Millisecond))
		return set.Reader(), nil
	}
	eps := strings.Split(endpoints, ",")
	for i := range eps {
		eps[i] = strings.TrimSpace(eps[i])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rd, err := shard.OpenRemote(ctx, eps, timeout)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "sp2bserve: admitted %d remote shards in %v\n",
		rd.ShardCount(), time.Since(start).Round(time.Millisecond))
	return rd, nil
}

// coordinatorStats serves the /stats document of a coordinator: the
// gathered dataset size plus the fan-out width (the per-shard metrics
// live on /metrics).
func coordinatorStats(rd store.Reader) http.Handler {
	shards := 1
	if sr, ok := rd.(*shard.Reader); ok {
		shards = sr.ShardCount()
	}
	doc := struct {
		Triples int `json:"triples"`
		Terms   int `json:"terms"`
		Shards  int `json:"shards"`
	}{rd.Len(), rd.TermDict().Len(), shards}
	body, err := json.Marshal(doc)
	if err != nil { // static struct of integers; cannot happen
		panic(err)
	}
	body = append(body, '\n')
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sp2bserve:", err)
	os.Exit(1)
}
