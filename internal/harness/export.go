package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Figure-data export: the paper's Figures 5-8 are gnuplot bar charts of
// per-query times across document sizes. WriteFigureData emits one
// whitespace-separated .dat file per query (plus loading.dat), each with
// a row per scale and tme/usr/sys columns per engine — directly
// plottable, and diffable across runs.

// WriteFigureData writes the per-query series of the report into dir,
// one file per query named <query>.dat, plus loading.dat. It returns the
// list of files written.
func (rep *Report) WriteFigureData(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	engines := sortedEngineNames(rep)
	var written []string
	for _, q := range queryColumns {
		if !rep.hasQuery(q) {
			continue
		}
		path := filepath.Join(dir, q+".dat")
		f, err := os.Create(path)
		if err != nil {
			return written, err
		}
		err = rep.writeQuerySeries(f, q, engines)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return written, err
		}
		written = append(written, path)
	}
	path := filepath.Join(dir, "loading.dat")
	f, err := os.Create(path)
	if err != nil {
		return written, err
	}
	err = rep.writeLoadingSeries(f, engines)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return written, err
	}
	return append(written, path), nil
}

// writeQuerySeries emits the gnuplot-ready block for one query. Failed
// cells carry the penalty value with a trailing status column, so plots
// show the paper's "Failure" bars.
func (rep *Report) writeQuerySeries(w io.Writer, query string, engines []string) error {
	if _, err := fmt.Fprintf(w, "# %s: per-scale times in seconds\n# scale", query); err != nil {
		return err
	}
	for _, eng := range engines {
		fmt.Fprintf(w, " %s_tme %s_usr %s_sys %s_status", eng, eng, eng, eng)
	}
	fmt.Fprintln(w)
	for _, sc := range rep.Config.Scales {
		row := []string{sc.Name}
		any := false
		for _, eng := range engines {
			run, ok := rep.Run(eng, sc.Name, query)
			if !ok {
				row = append(row, "-", "-", "-", "absent")
				continue
			}
			any = true
			if run.Outcome != Success {
				p := fmt.Sprintf("%.6f", rep.Config.PenaltySeconds)
				row = append(row, p, p, p, run.Outcome.String())
				continue
			}
			row = append(row, fmt.Sprintf("%.6f", run.Wall.Seconds()),
				fmt.Sprintf("%.6f", run.User.Seconds()), fmt.Sprintf("%.6f", run.Sys.Seconds()), "Success")
		}
		if !any {
			continue
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, " ")); err != nil {
			return err
		}
	}
	return nil
}

func (rep *Report) writeLoadingSeries(w io.Writer, engines []string) error {
	if _, err := fmt.Fprint(w, "# loading: per-scale load times in seconds\n# scale"); err != nil {
		return err
	}
	for _, eng := range engines {
		fmt.Fprintf(w, " %s_tme", eng)
	}
	fmt.Fprintln(w)
	for _, sc := range rep.Config.Scales {
		row := []string{sc.Name}
		for _, eng := range engines {
			found := false
			for _, l := range rep.Loading {
				if l.Engine == eng && l.Scale == sc.Name {
					row = append(row, fmt.Sprintf("%.6f", l.Wall.Seconds()))
					found = true
					break
				}
			}
			if !found {
				row = append(row, "-")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, " ")); err != nil {
			return err
		}
	}
	return nil
}
