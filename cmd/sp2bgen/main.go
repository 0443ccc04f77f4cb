// Command sp2bgen is the SP2Bench data generator CLI, the counterpart of
// the paper's sp2b_gen tool: it writes arbitrarily large DBLP-like RDF
// documents, deterministically, as N-Triples text or as a binary .sp2b
// snapshot that reloads without re-parsing or re-sorting.
//
// Usage:
//
//	sp2bgen -t 1000000 -o sp2b-1m.nt        # 1M triples, N-Triples text
//	sp2bgen -t 1000000 -o sp2b-1m.sp2b      # same data as a binary snapshot
//	sp2bgen -t 1000000 -o doc -format snapshot  # snapshot regardless of extension
//	sp2bgen -y 1975 -o sp2b-1975.nt         # everything up to 1975
//	sp2bgen -t 50000 -stats                 # print document statistics
//
// The snapshot format (see internal/snapshot) stores the
// dictionary-encoded, pre-sorted form of the document; sp2bquery,
// sp2bserve and sp2bbench auto-detect it by magic bytes, so it is a
// drop-in replacement wherever a document file is expected — one that
// loads an order of magnitude faster.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sp2bench/internal/dist"
	"sp2bench/internal/gen"
	"sp2bench/internal/snapshot"
)

func main() {
	var (
		triples = flag.Int64("t", 0, "triple count limit (one of -t or -y is required)")
		endYear = flag.Int("y", 0, "simulate up to this year (inclusive)")
		out     = flag.String("o", "", "output file (default stdout)")
		format  = flag.String("format", "", "output format: nt or snapshot (default: snapshot when -o ends in "+snapshot.Ext+", else nt)")
		seed    = flag.Uint64("seed", 1, "generator seed")
		stats   = flag.Bool("stats", false, "print document statistics to stderr")
	)
	flag.Parse()

	if *triples <= 0 && *endYear <= 0 {
		fmt.Fprintln(os.Stderr, "sp2bgen: need -t <triples> or -y <year>")
		flag.Usage()
		os.Exit(2)
	}
	var asSnapshot bool
	switch *format {
	case "nt":
	case "snapshot":
		asSnapshot = true
	case "":
		asSnapshot = strings.HasSuffix(*out, snapshot.Ext)
	default:
		fatal(fmt.Errorf("unknown format %q (want nt or snapshot)", *format))
	}

	p := gen.Params{
		Seed:                     *seed,
		TripleLimit:              *triples,
		EndYear:                  *endYear,
		StartYear:                1936,
		TargetedCitationFraction: 0.5,
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	st, err := emit(w, p, asSnapshot)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "triples:          %d\n", st.Triples)
		fmt.Fprintf(os.Stderr, "bytes:            %d\n", st.Bytes)
		fmt.Fprintf(os.Stderr, "data up to:       %d\n", st.EndYear)
		fmt.Fprintf(os.Stderr, "total authors:    %d\n", st.TotalAuthors)
		fmt.Fprintf(os.Stderr, "distinct authors: %d\n", st.DistinctAuthors)
		fmt.Fprintf(os.Stderr, "journals:         %d\n", st.Journals)
		for c := dist.Class(0); c < dist.NumClasses; c++ {
			fmt.Fprintf(os.Stderr, "%-17s %d\n", c.String()+":", st.ClassCounts[c])
		}
	}
}

// emit writes the document p describes to w: as a snapshot, built in
// memory by snapshot.GenerateStore, or as N-Triples text streamed
// straight from the generator.
func emit(w io.Writer, p gen.Params, asSnapshot bool) (*gen.Stats, error) {
	if asSnapshot {
		st, stats, err := snapshot.GenerateStore(p)
		if err != nil {
			return nil, err
		}
		return stats, snapshot.Write(w, st)
	}
	g, err := gen.New(p, w)
	if err != nil {
		return nil, err
	}
	return g.Generate()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sp2bgen:", err)
	os.Exit(1)
}
