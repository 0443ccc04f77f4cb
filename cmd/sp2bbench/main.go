// Command sp2bbench runs the SP2Bench measurement protocol and prints the
// paper's tables and figures.
//
// Usage:
//
//	sp2bbench                                # full protocol, all tables
//	sp2bbench -experiment table5             # one experiment
//	sp2bbench -scales 10k,50k,250k           # restrict document sizes
//	sp2bbench -timeout 30m -runs 3           # the paper's full protocol
//	sp2bbench -experiment fig2b -gen 1000000 # generator distributions
//	sp2bbench -endpoint http://host:8080/sparql
//	                                         # benchmark a remote SPARQL endpoint
//	sp2bbench -workdir cache -stats          # cache docs + snapshots, print footprints
//	sp2bbench -scales 10k -report out.json   # machine-readable JSON report
//
// Experiments: all, table3, table4, table5, table6, table7, table8,
// table9, fig2a, fig2b, fig2c, figures, loading, shapes.
//
// Every query runs on its own, one at a time, as the paper's §VI
// protocol prescribes, on the native engine (the configuration
// sp2bserve serves). Served traffic — concurrent clients, updates,
// latency percentiles through sp2bserve — is measured by the bench
// program at the repository root (go run ./bench).
//
// -report writes the full run as a schema-versioned JSON document
// (per-cell runs with their physical plans, arithmetic and geometric
// means per the paper's §VI rules, environment metadata).
//
// The harness caches each generated document plus a binary .sp2b
// snapshot in -workdir: the first run pays generation, the N-Triples
// parse and the index sort once; subsequent runs (and parallel CI jobs
// sharing the directory) skip generation and reload the pre-sorted
// store in milliseconds. A manifest holding a generator probe hash
// guards the cache, so code changes that alter generated data
// invalidate it automatically. The loading table's source column shows
// which path each scale took.
//
// With -endpoint the harness drives any SPARQL 1.1 Protocol endpoint
// (sp2bserve or a third-party store) instead of the in-process engine;
// the endpoint serves its own data, so -scales is ignored and the
// per-query table is reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sp2bench/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run")
		scales     = flag.String("scales", "10k,50k,250k,1M", "comma-separated scales (10k,50k,250k,1M,5M,25M)")
		timeout    = flag.Duration("timeout", 15*time.Second, "per-query timeout (paper: 30m)")
		runs       = flag.Int("runs", 1, "measured runs per cell (paper: 3)")
		endpoint   = flag.String("endpoint", "", "benchmark a remote SPARQL endpoint at this URL instead of the in-process engine")
		queryIDs   = flag.String("queries", "", "comma-separated benchmark query ids to run (default: all 17)")
		seed       = flag.Uint64("seed", 1, "generator seed")
		memLimit   = flag.Uint64("memlimit", 0, "heap limit in bytes (0 = off)")
		workdir    = flag.String("workdir", "", "directory caching generated documents and their .sp2b snapshots")
		genSize    = flag.Int64("gen", 1_000_000, "triple count for generator experiments (fig2*, table9)")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		showStats  = flag.Bool("stats", false, "print the per-scale store footprint (triples, terms, index bytes) after the run")
		analyze    = flag.Bool("analyze", false, "capture an EXPLAIN ANALYZE trace per cell on one extra unmeasured run (engine backends; traces land in the JSON report's runs[].trace)")
		figdata    = flag.String("figdata", "", "also write gnuplot-ready per-query .dat files into this directory")
		reportPath = flag.String("report", "", "write the run as a schema-versioned JSON report to this file")
	)
	flag.Parse()

	cfg := harness.DefaultConfig()
	cfg.Timeout = *timeout
	cfg.Runs = *runs
	cfg.Seed = *seed
	cfg.MemLimitBytes = *memLimit
	cfg.WorkDir = *workdir
	cfg.Analyze = *analyze
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *queryIDs != "" {
		for _, id := range strings.Split(*queryIDs, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if id == "" {
				continue
			}
			cfg.QueryIDs = append(cfg.QueryIDs, id)
		}
	}
	if *endpoint != "" {
		if *showStats {
			fmt.Fprintln(os.Stderr, "sp2bbench: -stats has no effect with -endpoint (no local store is loaded)")
		}
		runEndpoint(cfg, *endpoint, *reportPath)
		return
	}
	var err error
	cfg.Scales, err = harness.ParseScales(*scales)
	if err != nil {
		fatal(err)
	}
	switch *experiment {
	case "fig2a", "fig2b", "fig2c", "table9":
		if *showStats {
			fmt.Fprintln(os.Stderr, "sp2bbench: -stats has no effect for generator experiments (no store is loaded)")
		}
		if *reportPath != "" {
			fmt.Fprintln(os.Stderr, "sp2bbench: -report has no effect for generator experiments (no query measurements are taken)")
		}
		stats, err := harness.GeneratorExperiment(*genSize, *seed)
		if err != nil {
			fatal(err)
		}
		switch *experiment {
		case "fig2a":
			harness.RenderFigure2a(os.Stdout, stats)
		case "fig2b":
			harness.RenderFigure2b(os.Stdout, stats)
		case "fig2c":
			harness.RenderFigure2c(os.Stdout, stats, []int{1955, 1965, 1975, 1985, 1995, 2005})
		case "table9":
			harness.RenderTableIX(os.Stdout, stats)
		}
		return
	}

	runner, err := harness.NewRunner(cfg)
	if err != nil {
		fatal(err)
	}
	rep, err := runner.Run()
	if err != nil {
		fatal(err)
	}
	rep.SortRuns()
	if *figdata != "" {
		files, err := rep.WriteFigureData(*figdata)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d figure data files to %s\n", len(files), *figdata)
	}

	switch *experiment {
	case "all":
		rep.RenderAll(os.Stdout)
		if v := rep.CheckShapes(); len(v) > 0 {
			fmt.Println("shape violations:")
			for _, s := range v {
				fmt.Printf("  %s @ %s: %s\n", s.Query, s.Scale, s.Msg)
			}
		} else {
			fmt.Println("all paper shape expectations hold")
		}
	case "table3":
		rep.RenderTableIII(os.Stdout)
	case "table4":
		rep.RenderTableIV(os.Stdout)
	case "table5":
		rep.RenderTableV(os.Stdout)
	case "table6", "table7":
		rep.RenderMeans(os.Stdout)
	case "table8":
		rep.RenderTableVIII(os.Stdout)
	case "loading":
		rep.RenderLoading(os.Stdout)
	case "figures":
		rep.RenderPerQuery(os.Stdout)
	case "shapes":
		if v := rep.CheckShapes(); len(v) > 0 {
			for _, s := range v {
				fmt.Printf("%s @ %s: %s\n", s.Query, s.Scale, s.Msg)
			}
			// A violating run is exactly the one worth archiving: write
			// the report before the failing exit.
			writeReport(rep, *reportPath)
			os.Exit(1)
		}
		fmt.Println("all paper shape expectations hold")
	default:
		fatal(fmt.Errorf("unknown experiment %q", *experiment))
	}
	if *showStats {
		fmt.Println()
		rep.RenderFootprints(os.Stdout)
	}
	writeReport(rep, *reportPath)
}

// runEndpoint drives a remote SPARQL endpoint: the tables that need
// local generator or loading data do not apply, so only the per-query
// results are rendered.
func runEndpoint(cfg harness.Config, url, reportPath string) {
	cfg.Endpoint = url
	cfg.Scales = nil
	runner, err := harness.NewRunner(cfg)
	if err != nil {
		fatal(err)
	}
	rep, err := runner.Run()
	if err != nil {
		fatal(err)
	}
	rep.SortRuns()
	rep.RenderPerQuery(os.Stdout)
	writeReport(rep, reportPath)
}

// writeReport writes the run as a JSON report when -report names a
// file.
func writeReport(rep *harness.Report, path string) {
	if path == "" {
		return
	}
	if err := rep.JSONReport().WriteJSONFile(path); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote JSON report (%s) to %s\n", harness.ReportSchema, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sp2bbench:", err)
	os.Exit(1)
}
