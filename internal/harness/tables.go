package harness

import (
	"fmt"
	"io"
	"sort"

	"sp2bench/internal/queries"
)

// queryColumns is the paper's Table IV/V column order.
var queryColumns = []string{
	"q1", "q2", "q3a", "q3b", "q3c", "q4", "q5a", "q5b",
	"q6", "q7", "q8", "q9", "q10", "q11", "q12a", "q12b", "q12c",
}

// RenderTableIII writes the document-generation evaluation (Table III):
// elapsed generation time per target triple count.
func (rep *Report) RenderTableIII(w io.Writer) {
	fmt.Fprintln(w, "Table III: document generation evaluation")
	fmt.Fprintf(w, "%-10s", "#triples")
	for _, sc := range rep.Config.Scales {
		fmt.Fprintf(w, "%12s", sc.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "time [s]")
	for _, sc := range rep.Config.Scales {
		fmt.Fprintf(w, "%12.2f", rep.GenTime[sc.Name].Seconds())
	}
	fmt.Fprintln(w)
}

// RenderTableVIII writes the characteristics of the generated documents
// (Table VIII): size, final year, author counts and per-class counts.
func (rep *Report) RenderTableVIII(w io.Writer) {
	fmt.Fprintln(w, "Table VIII: characteristics of generated documents")
	fmt.Fprintf(w, "%-14s", "#Triples")
	for _, sc := range rep.Config.Scales {
		fmt.Fprintf(w, "%12s", sc.Name)
	}
	fmt.Fprintln(w)
	row := func(label string, f func(sc string) string) {
		fmt.Fprintf(w, "%-14s", label)
		for _, sc := range rep.Config.Scales {
			fmt.Fprintf(w, "%12s", f(sc.Name))
		}
		fmt.Fprintln(w)
	}
	row("file size[MB]", func(sc string) string {
		return fmt.Sprintf("%.1f", float64(rep.GenStats[sc].Bytes)/1e6)
	})
	row("data up to", func(sc string) string {
		return fmt.Sprintf("%d", rep.GenStats[sc].EndYear)
	})
	row("#Tot.Auth.", func(sc string) string {
		return fmt.Sprintf("%d", rep.GenStats[sc].TotalAuthors)
	})
	row("#Dist.Auth.", func(sc string) string {
		return fmt.Sprintf("%d", rep.GenStats[sc].DistinctAuthors)
	})
	row("#Journals", func(sc string) string {
		return fmt.Sprintf("%d", rep.GenStats[sc].Journals)
	})
	classRows := []struct {
		label string
		idx   int
	}{
		{"#Articles", 0}, {"#Proc.", 2}, {"#Inproc.", 1}, {"#Incoll.", 4},
		{"#Books", 3}, {"#PhD Th.", 5}, {"#Mast.Th.", 6}, {"#WWWs", 7},
	}
	for _, cr := range classRows {
		cr := cr
		row(cr.label, func(sc string) string {
			return fmt.Sprintf("%d", rep.GenStats[sc].ClassCounts[cr.idx])
		})
	}
}

// RenderTableIV writes the success-rate matrix (Table IV): one row per
// (engine, scale), one letter per query.
func (rep *Report) RenderTableIV(w io.Writer) {
	fmt.Fprintln(w, "Table IV: success rates (+ success, T timeout, M memory, E error)")
	matrix := rep.SuccessMatrix()
	engines := sortedEngineNames(rep)
	fmt.Fprintf(w, "%-18s %-7s", "engine", "scale")
	for _, q := range queryColumns {
		fmt.Fprintf(w, "%5s", q)
	}
	fmt.Fprintln(w)
	for _, eng := range engines {
		for _, sc := range rep.Config.Scales {
			cells, ok := matrix[eng][sc.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-18s %-7s", eng, sc.Name)
			for _, q := range queryColumns {
				out, ok := cells[q]
				if !ok {
					fmt.Fprintf(w, "%5s", "-")
					continue
				}
				fmt.Fprintf(w, "%5s", out.Letter())
			}
			fmt.Fprintln(w)
		}
	}
}

// RenderTableV writes the query result sizes per document size (Table V).
// ASK queries report 1 for yes and 0 for no.
func (rep *Report) RenderTableV(w io.Writer) {
	fmt.Fprintln(w, "Table V: number of query results per document size")
	sizes := rep.ResultSizes()
	fmt.Fprintf(w, "%-7s", "scale")
	for _, q := range queryColumns {
		fmt.Fprintf(w, "%10s", q)
	}
	fmt.Fprintln(w)
	for _, sc := range rep.Config.Scales {
		fmt.Fprintf(w, "%-7s", sc.Name)
		for _, q := range queryColumns {
			if n, ok := sizes[sc.Name][q]; ok {
				fmt.Fprintf(w, "%10d", n)
			} else {
				fmt.Fprintf(w, "%10s", "n/a")
			}
		}
		fmt.Fprintln(w)
	}
}

// RenderMeans writes the global performance metric (Tables VI and VII):
// arithmetic/geometric mean execution times and mean memory per
// (engine, scale), with failures penalized at Config.PenaltySeconds.
func (rep *Report) RenderMeans(w io.Writer) {
	fmt.Fprintln(w, "Tables VI/VII: arithmetic/geometric mean execution time and mean memory")
	fmt.Fprintf(w, "%-18s %-7s %12s %12s %12s %9s\n",
		"engine", "scale", "Ta [s]", "Tg [s]", "Ma [MB]", "failures")
	for _, m := range rep.GlobalMeans() {
		fmt.Fprintf(w, "%-18s %-7s %12.3f %12.4f %12.1f %6d/%2d\n",
			m.Engine, m.Scale, m.Arithmetic, m.Geometric, m.MemMeanBytes/1e6,
			m.Failures, m.Queries)
	}
}

// RenderLoading writes the document loading times (the loading plot of
// Figure 5).
func (rep *Report) RenderLoading(w io.Writer) {
	fmt.Fprintln(w, "Figure 5 (loading): document load times")
	fmt.Fprintf(w, "%-18s %-7s %12s %12s  %s\n", "engine", "scale", "triples", "tme [s]", "source")
	for _, l := range rep.Loading {
		fmt.Fprintf(w, "%-18s %-7s %12d %12.3f  %s\n", l.Engine, l.Scale, l.Triples, l.Wall.Seconds(), l.Source)
	}
}

// RenderFootprints writes the per-scale store footprint table behind
// sp2bbench -stats: triples, dictionary terms, index bytes (in total and
// per triple) and approximate term-data bytes, plus the source each
// scale was loaded from.
func (rep *Report) RenderFootprints(w io.Writer) {
	if len(rep.Footprints) == 0 {
		return
	}
	fmt.Fprintln(w, "Store footprint")
	fmt.Fprintf(w, "%-7s %12s %12s %14s %14s %14s  %s\n",
		"scale", "triples", "terms", "index [MiB]", "index [B/t]", "terms [MiB]", "source")
	for _, sc := range reportScales(rep) {
		f, ok := rep.Footprints[sc.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-7s %12d %12d %14.1f %14.1f %14.1f  %s\n",
			sc.Name, f.Triples, f.Terms, float64(f.IndexBytes)/(1<<20),
			f.IndexBytesPerTriple(), float64(f.TermBytes)/(1<<20), rep.Sources[sc.Name])
	}
}

// RenderPerQuery writes the per-query performance series (Figures 5-8):
// for every query one block with a row per scale and a column per engine,
// wall/user/sys in seconds.
func (rep *Report) RenderPerQuery(w io.Writer) {
	engines := sortedEngineNames(rep)
	for _, q := range queryColumns {
		if !rep.hasQuery(q) {
			continue
		}
		fmt.Fprintf(w, "Figures 5-8 series: %s\n", q)
		fmt.Fprintf(w, "%-7s", "scale")
		for _, eng := range engines {
			fmt.Fprintf(w, " | %-28s", eng+" tme/usr/sys [s]")
		}
		fmt.Fprintln(w)
		for _, sc := range reportScales(rep) {
			fmt.Fprintf(w, "%-7s", sc.Name)
			for _, eng := range engines {
				run, ok := rep.Run(eng, sc.Name, q)
				if !ok {
					fmt.Fprintf(w, " | %-28s", "-")
					continue
				}
				if run.Outcome != Success {
					fmt.Fprintf(w, " | %-28s", run.Outcome.String())
					continue
				}
				fmt.Fprintf(w, " | %8.4f %8.4f %8.4f ",
					run.Wall.Seconds(), run.User.Seconds(), run.Sys.Seconds())
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

func (rep *Report) hasQuery(q string) bool {
	for _, run := range rep.Runs {
		if run.Query == q {
			return true
		}
	}
	return false
}

func sortedEngineNames(rep *Report) []string {
	seen := map[string]bool{}
	var out []string
	for _, run := range rep.Runs {
		if !seen[run.Engine] {
			seen[run.Engine] = true
			out = append(out, run.Engine)
		}
	}
	sort.Strings(out)
	return out
}

// reportScales returns the configured scales, or — for endpoint-mode
// reports, which configure none — the scales observed in the runs, in
// encounter order.
func reportScales(rep *Report) []Scale {
	if len(rep.Config.Scales) > 0 {
		return rep.Config.Scales
	}
	seen := map[string]bool{}
	var out []Scale
	for _, run := range rep.Runs {
		if !seen[run.Scale] {
			seen[run.Scale] = true
			out = append(out, Scale{Name: run.Scale})
		}
	}
	return out
}

// RenderAll writes every table the report supports in paper order.
func (rep *Report) RenderAll(w io.Writer) {
	rep.RenderTableIII(w)
	fmt.Fprintln(w)
	rep.RenderTableVIII(w)
	fmt.Fprintln(w)
	rep.RenderTableIV(w)
	fmt.Fprintln(w)
	rep.RenderTableV(w)
	fmt.Fprintln(w)
	rep.RenderMeans(w)
	fmt.Fprintln(w)
	rep.RenderLoading(w)
	fmt.Fprintln(w)
	rep.RenderPerQuery(w)
}

// ExpectedShapes documents the paper's structural expectations used by
// the integration tests; exported so the report can check itself.
type ShapeViolation struct {
	Query string
	Scale string
	Msg   string
}

// CheckShapes verifies the paper's fixed-result expectations against the
// report: Q1 = 1, Q3c = 0, Q9 = 4, Q11 = 10 (for sufficiently large
// documents), Q12a/b = yes, Q12c = no, and Q5a = Q5b.
func (rep *Report) CheckShapes() []ShapeViolation {
	var out []ShapeViolation
	sizes := rep.ResultSizes()
	for _, sc := range rep.Config.Scales {
		cells, ok := sizes[sc.Name]
		if !ok {
			continue
		}
		expect := func(q string, want int) {
			if got, ok := cells[q]; ok && got != want {
				out = append(out, ShapeViolation{q, sc.Name, fmt.Sprintf("got %d want %d", got, want)})
			}
		}
		expect("q1", 1)
		expect("q3c", 0)
		expect("q9", 4)
		expect("q11", 10)
		expect("q12a", 1)
		expect("q12b", 1)
		expect("q12c", 0)
		a, okA := cells["q5a"]
		b, okB := cells["q5b"]
		if okA && okB && a != b {
			out = append(out, ShapeViolation{"q5a/q5b", sc.Name, fmt.Sprintf("q5a=%d q5b=%d", a, b)})
		}
	}
	return out
}

func init() {
	// The column list must stay in sync with the query catalog.
	ids := map[string]bool{}
	for _, q := range queries.All() {
		ids[q.ID] = true
	}
	for _, c := range queryColumns {
		if !ids[c] {
			panic("harness: query column " + c + " missing from catalog")
		}
	}
}
