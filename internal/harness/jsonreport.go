package harness

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/store"
)

// Machine-readable reporting: the paper's Section VI prescribes
// arithmetic and geometric means over repeated runs so engines can be
// compared robustly; this file makes the whole report a versioned JSON
// document.

// ReportSchema identifies the JSON report format. Consumers must
// reject majors they do not know; additive changes stay within a
// major.
const ReportSchema = "sp2bench-report/4"

// JSONReport is the schema-versioned serialization of a benchmark run.
type JSONReport struct {
	Schema    string      `json:"schema"`
	CreatedAt string      `json:"created_at"`
	Env       Environment `json:"environment"`
	Config    ConfigInfo  `json:"config"`
	// Generation summarizes document generation per scale.
	Generation map[string]GenInfo `json:"generation,omitempty"`
	// Loading is the Section VI loading-time metric.
	Loading []LoadInfo `json:"loading,omitempty"`
	// Runs holds every (engine, scale, query) cell of a sweep run.
	Runs []RunInfo `json:"runs,omitempty"`
	// Means are the paper's global-performance metrics per (engine,
	// scale): arithmetic and geometric mean with failures ranked at the
	// penalty.
	Means []MeansInfo `json:"means,omitempty"`
	// Cardinality aggregates optimizer estimate quality per engine over
	// every traced cell (Config.Analyze runs).
	Cardinality []CardinalityInfo `json:"cardinality,omitempty"`
	// Footprints and Sources record per-scale store footprint and the
	// representation the store was built from.
	Footprints map[string]store.Footprint `json:"footprints,omitempty"`
	Sources    map[string]string          `json:"sources,omitempty"`
}

// Environment records where the run happened — numbers without a
// machine attached are not comparable.
type Environment struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname,omitempty"`
}

// ConfigInfo summarizes the protocol configuration of the run.
type ConfigInfo struct {
	Scales         []string `json:"scales,omitempty"`
	Queries        []string `json:"queries,omitempty"`
	TimeoutSeconds float64  `json:"timeout_seconds"`
	Runs           int      `json:"runs"`
	PenaltySeconds float64  `json:"penalty_seconds"`
	Endpoint       string   `json:"endpoint,omitempty"`
	Seed           uint64   `json:"seed"`
}

// GenInfo summarizes one scale's document generation.
type GenInfo struct {
	Triples    int64   `json:"triples"`
	Bytes      int64   `json:"bytes"`
	EndYear    int     `json:"end_year"`
	GenSeconds float64 `json:"gen_seconds"`
}

// LoadInfo is one loading-time row.
type LoadInfo struct {
	Scale       string  `json:"scale"`
	Engine      string  `json:"engine"`
	WallSeconds float64 `json:"wall_seconds"`
	Triples     int     `json:"triples"`
	Source      string  `json:"source"`
}

// RunInfo is one measured cell.
type RunInfo struct {
	Query       string  `json:"query"`
	Engine      string  `json:"engine"`
	Scale       string  `json:"scale"`
	Outcome     string  `json:"outcome"`
	WallSeconds float64 `json:"wall_seconds"`
	UserSeconds float64 `json:"user_seconds,omitempty"`
	SysSeconds  float64 `json:"sys_seconds,omitempty"`
	Results     int     `json:"results"`
	MemPeak     uint64  `json:"mem_peak,omitempty"`
	// Plan records the backend's physical plan (BGP reordering and the
	// operator chosen per join step) so a report explains its numbers.
	Plan string `json:"plan,omitempty"`
	// Trace is the EXPLAIN ANALYZE operator trace (Config.Analyze runs):
	// per-operator actual rows, wall time and planner estimates. The
	// cardinality-error ratios summarize it: max and geometric mean of
	// max(est/actual, actual/est) over estimated plan steps.
	Trace        *engine.Trace `json:"trace,omitempty"`
	MaxCardError float64       `json:"max_cardinality_error,omitempty"`
	GeoCardError float64       `json:"geomean_cardinality_error,omitempty"`
	Err          string        `json:"err,omitempty"`
}

// MeansInfo is one (engine, scale) global-performance row.
type MeansInfo struct {
	Engine       string  `json:"engine"`
	Scale        string  `json:"scale"`
	Arithmetic   float64 `json:"arithmetic_seconds"`
	Geometric    float64 `json:"geometric_seconds"`
	MemMeanBytes float64 `json:"mem_mean_bytes,omitempty"`
	Queries      int     `json:"queries"`
	Failures     int     `json:"failures"`
}

// CardinalityInfo aggregates the optimizer's est-vs-actual cardinality
// error across the traced cells of one engine: the worst per-cell max
// ratio, and the geometric mean of the per-cell geometric means. A
// ratio of 1 is a perfect estimate.
type CardinalityInfo struct {
	Engine  string  `json:"engine"`
	Cells   int     `json:"cells"`
	Max     float64 `json:"max_ratio"`
	GeoMean float64 `json:"geomean_ratio"`
}

// JSONReport builds the machine-readable form of the report.
func (rep *Report) JSONReport() *JSONReport {
	out := &JSONReport{
		Schema:    ReportSchema,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Env: Environment{
			GoVersion:  runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Footprints: rep.Footprints,
		Sources:    rep.Sources,
	}
	if host, err := os.Hostname(); err == nil {
		out.Env.Hostname = host
	}

	cfg := rep.Config
	out.Config = ConfigInfo{
		Queries:        cfg.QueryIDs,
		TimeoutSeconds: cfg.Timeout.Seconds(),
		Runs:           cfg.Runs,
		PenaltySeconds: cfg.PenaltySeconds,
		Endpoint:       cfg.Endpoint,
		Seed:           cfg.Seed,
	}
	for _, sc := range cfg.Scales {
		out.Config.Scales = append(out.Config.Scales, sc.Name)
	}

	if len(rep.GenStats) > 0 {
		out.Generation = map[string]GenInfo{}
		for name, st := range rep.GenStats {
			out.Generation[name] = GenInfo{
				Triples:    st.Triples,
				Bytes:      st.Bytes,
				EndYear:    st.EndYear,
				GenSeconds: rep.GenTime[name].Seconds(),
			}
		}
	}
	for _, l := range rep.Loading {
		out.Loading = append(out.Loading, LoadInfo{
			Scale: l.Scale, Engine: l.Engine, WallSeconds: l.Wall.Seconds(),
			Triples: l.Triples, Source: l.Source,
		})
	}
	type cardAcc struct {
		max  float64
		logs []float64
	}
	cards := map[string]*cardAcc{}
	var cardOrder []string
	for _, run := range rep.Runs {
		ri := RunInfo{
			Query: run.Query, Engine: run.Engine, Scale: run.Scale,
			Outcome:     run.Outcome.String(),
			WallSeconds: run.Wall.Seconds(),
			UserSeconds: run.User.Seconds(), SysSeconds: run.Sys.Seconds(),
			Results: run.Results, MemPeak: run.MemPeak,
			Plan: run.Plan, Trace: run.Trace, Err: run.Err,
		}
		if run.Trace != nil {
			ri.MaxCardError, ri.GeoCardError = run.Trace.CardinalityError()
			if ri.GeoCardError > 0 {
				a, ok := cards[run.Engine]
				if !ok {
					a = &cardAcc{}
					cards[run.Engine] = a
					cardOrder = append(cardOrder, run.Engine)
				}
				if ri.MaxCardError > a.max {
					a.max = ri.MaxCardError
				}
				a.logs = append(a.logs, math.Log(ri.GeoCardError))
			}
		}
		out.Runs = append(out.Runs, ri)
	}
	sort.Strings(cardOrder)
	for _, eng := range cardOrder {
		a := cards[eng]
		sum := 0.0
		for _, l := range a.logs {
			sum += l
		}
		out.Cardinality = append(out.Cardinality, CardinalityInfo{
			Engine: eng, Cells: len(a.logs),
			Max: a.max, GeoMean: math.Exp(sum / float64(len(a.logs))),
		})
	}
	for _, m := range rep.GlobalMeans() {
		out.Means = append(out.Means, MeansInfo{
			Engine: m.Engine, Scale: m.Scale,
			Arithmetic: m.Arithmetic, Geometric: m.Geometric,
			MemMeanBytes: m.MemMeanBytes, Queries: m.Queries, Failures: m.Failures,
		})
	}
	return out
}

// WriteJSON encodes the report to w.
func (j *JSONReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}

// WriteJSONFile writes the report to path.
func (j *JSONReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = j.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
