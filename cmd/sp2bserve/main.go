// Command sp2bserve serves an SP2Bench document as a SPARQL 1.1
// Protocol endpoint, turning the benchmark's in-process engine into a
// networked triple store that any protocol-speaking client — curl,
// sp2bbench -endpoint, or a third-party driver — can query.
//
// Usage:
//
//	sp2bserve -d doc.nt                          # serve doc.nt on :8080
//	sp2bserve -d doc.sp2b                        # serve a binary snapshot (auto-detected)
//	sp2bserve -gen 50000                         # generate 50k triples in memory and serve them
//	sp2bserve -d doc.nt -addr :9090              # serve on another port
//	sp2bserve -d doc.nt -timeout 30s -max-concurrent 16
//	sp2bserve -gen 50000 -debug-addr :6060       # pprof + /metrics side listener
//
// Queries run on the native engine: the batch-at-a-time executor with
// partitioned parallel scans, falling back per query to the tuple
// operators for forms it does not cover.
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
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/obs"
	"sp2bench/internal/server"
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
		timeout   = flag.Duration("timeout", 30*time.Second, "per-query evaluation limit (0 = none)")
		maxConc   = flag.Int("max-concurrent", 2*runtime.GOMAXPROCS(0), "max in-flight queries (0 = unlimited)")
		seed      = flag.Uint64("seed", 1, "generator seed (with -gen)")
		updates   = flag.Bool("updates", false, "serve the insert operation on POST /update (store becomes mutable)")
		logJSON   = flag.Bool("log-json", false, "log requests as JSON lines (log/slog) instead of text")
		quiet     = flag.Bool("quiet", false, "suppress per-request logging")
	)
	flag.Parse()

	if (*data != "") == (*genSize != 0) {
		fmt.Fprintln(os.Stderr, "sp2bserve: need exactly one of -d <doc.nt> or -gen <triples>")
		flag.Usage()
		os.Exit(2)
	}

	opts := engine.Native()

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

	st, err := loadStore(*data, *genSize, *seed)
	if err != nil {
		fatal(err)
	}
	fp := st.Footprint()
	gTriples.Set(int64(fp.Triples))
	gTerms.Set(int64(fp.Terms))

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
	if *updates {
		live = mvcc.New(st, mvcc.MergePolicy{})
		live.Logf = cfg.Logf
		defer live.Close()
		cfg.Live = live
		cfg.Opts = opts
	} else {
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
	if *updates {
		mux.Handle("/update", server.UpdateHandler(live, cfg.Logf))
		mux.Handle("/stats", server.LiveStatsHandler(live))
	} else {
		mux.Handle("/stats", server.StatsHandler(st))
	}
	app.Store(mux) // ready: /healthz flips to 200

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "sp2bserve: store footprint: %s\n", fp)
	fmt.Fprintf(os.Stderr, "sp2bserve: %s engine, listening on %s\n", opts.Name, *addr)

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
	st, _, err := snapshot.GenerateStore(p)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "sp2bserve: generated %d triples in %v\n", st.Len(), time.Since(start).Round(time.Millisecond))
	return st, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sp2bserve:", err)
	os.Exit(1)
}
