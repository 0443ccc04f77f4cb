// Command sp2bquery evaluates SPARQL queries against a generated
// document.
//
// Usage:
//
//	sp2bquery -d doc.nt -id q8                  # run benchmark query Q8
//	sp2bquery -d doc.sp2b -id q8                # same, from a binary snapshot
//	sp2bquery -d doc.nt -q my.sparql            # run a query from a file
//	sp2bquery -d doc.nt -id q2 -count           # print only the count
//	sp2bquery -d doc.nt -id q1 -format json     # SPARQL JSON results
//	sp2bquery -d doc.nt -id q2 -analyze         # EXPLAIN ANALYZE operator trace
//
// The -d input may be N-Triples text or an .sp2b snapshot written by
// sp2bgen -o doc.sp2b; the format is auto-detected by magic bytes, and
// snapshots load without re-parsing or re-sorting — worth it whenever
// the same document is queried more than once.
//
// Queries run on the native engine, the configuration sp2bserve
// serves. SELECT/ASK results are emitted in any of the standard result formats
// (-format json|xml|csv|tsv) or as a human-readable table (the
// default); CONSTRUCT/DESCRIBE graphs are emitted as N-Triples.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/results"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/sparql"
)

func main() {
	var (
		data      = flag.String("d", "", "document to load: N-Triples or .sp2b snapshot (required)")
		queryFile = flag.String("q", "", "file containing a SPARQL query")
		queryID   = flag.String("id", "", "benchmark query id (q1..q12c)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "query timeout")
		countOnly = flag.Bool("count", false, "print only the result count")
		explain   = flag.Bool("explain", false, "print the physical plan")
		analyze   = flag.Bool("analyze", false, "print the EXPLAIN ANALYZE trace: per-operator actual vs estimated rows and wall time")
		format    = flag.String("format", "table", "result format: json, xml, csv, tsv or table")
		maxRows   = flag.Int("max", 100, "maximum rows/triples to print in table format (0 = all)")
	)
	flag.Parse()

	if *data == "" || (*queryFile == "" && *queryID == "") {
		fmt.Fprintln(os.Stderr, "sp2bquery: need -d <doc.nt> and one of -q <file> / -id <qid>")
		flag.Usage()
		os.Exit(2)
	}

	outFormat, err := results.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}

	text, err := queryText(*queryFile, *queryID)
	if err != nil {
		fatal(err)
	}

	loadStart := time.Now()
	st, _, _, err := snapshot.OpenStoreFile(*data)
	if err != nil {
		fatal(err)
	}
	eng := engine.New(st, engine.Native())
	fmt.Fprintf(os.Stderr, "loaded %d triples in %v\n", st.Len(), time.Since(loadStart).Round(time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	parsed, err := sparql.Parse(text, queries.Prologue)
	if err != nil {
		fatal(err)
	}
	if *explain {
		// The physical plan: BGP reorderings and the operator chosen per
		// join step (scan/nl/merge/hash/hashseg, parallel partitions).
		plan, err := eng.Explain(parsed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(os.Stderr, plan)
	}
	var th *engine.TraceHandle
	if *analyze {
		ctx, th = engine.WithAnalyze(ctx)
		defer func() {
			if tr := th.Trace(); tr != nil {
				fmt.Fprint(os.Stderr, tr.String())
			}
		}()
	}
	start := time.Now()
	if *countOnly {
		n, err := eng.Count(ctx, parsed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d results in %v\n", n, time.Since(start).Round(time.Microsecond))
		return
	}
	res, graph, err := eng.Eval(ctx, parsed)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if parsed.Form == sparql.FormConstruct || parsed.Form == sparql.FormDescribe {
		if outFormat == results.Table && *maxRows > 0 && len(graph) > *maxRows {
			if err := results.WriteGraph(os.Stdout, graph[:*maxRows]); err != nil {
				fatal(err)
			}
			fmt.Printf("... (%d more triples)\n", len(graph)-*maxRows)
		} else if err := results.WriteGraph(os.Stdout, graph); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%d triples in %v\n", len(graph), elapsed.Round(time.Microsecond))
		return
	}
	out := results.FromEngine(res)
	// The interchange formats are emitted whole — a truncated JSON or
	// CSV document would be worse than a big one. Only the human-facing
	// table honours -max.
	if outFormat == results.Table && *maxRows > 0 && len(out.Rows) > *maxRows {
		trunc := *out
		trunc.Rows = out.Rows[:*maxRows]
		if err := trunc.Write(os.Stdout, outFormat); err != nil {
			fatal(err)
		}
		fmt.Printf("... (%d more rows)\n", len(out.Rows)-*maxRows)
	} else if err := out.Write(os.Stdout, outFormat); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%d results in %v\n", res.Len(), elapsed.Round(time.Microsecond))
}

func queryText(file, id string) (string, error) {
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	q, ok := queries.ByID(strings.ToLower(id))
	if !ok {
		return "", fmt.Errorf("unknown benchmark query %q (want q1..q12c)", id)
	}
	return q.Text, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sp2bquery:", err)
	os.Exit(1)
}
