package harness

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sp2bench/internal/snapshot"
)

// miniConfig returns a protocol small enough for unit tests: the 10k
// scale and a short timeout.
func miniConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scales = []Scale{{"10k", 10_000}}
	cfg.Timeout = 30 * time.Second
	cfg.WorkDir = t.TempDir()
	return cfg
}

// fastQueries is a query subset that completes quickly.
var fastQueries = []string{"q1", "q2", "q3a", "q10", "q11", "q12c"}

func TestRunnerValidation(t *testing.T) {
	bad := []Config{
		{},
		{Scales: DefaultScales()},
		{Scales: DefaultScales(), Timeout: time.Second, QueryIDs: []string{"q1", "q13"}},
	}
	for i, cfg := range bad {
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestFullProtocolSmall(t *testing.T) {
	cfg := miniConfig(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 17 {
		t.Fatalf("got %d runs, want 17 (one per query)", len(rep.Runs))
	}
	for _, run := range rep.Runs {
		if run.Outcome != Success {
			t.Errorf("%s failed: %s %s", run.Query, run.Outcome, run.Err)
		}
	}
	// The paper's shape expectations must hold on the 10k document.
	if v := rep.CheckShapes(); len(v) != 0 {
		t.Errorf("shape violations: %+v", v)
	}
	// Loading stats recorded.
	if len(rep.Loading) != 1 || rep.Loading[0].Triples == 0 {
		t.Errorf("loading stats missing: %+v", rep.Loading)
	}
	// Generator stats recorded.
	if rep.GenStats["10k"] == nil || rep.GenStats["10k"].Triples < 10_000 {
		t.Error("generator stats missing")
	}
}

// TestDefaultConfigQuerySubset runs DefaultConfig cut to its first
// scale with a query subset: one run per listed query, and the paper's
// shapes hold.
func TestDefaultConfigQuerySubset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scales = cfg.Scales[:1] // 10k only
	cfg.QueryIDs = []string{"q1", "q9", "q11"}
	cfg.WorkDir = t.TempDir()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(rep.Runs))
	}
	if v := rep.CheckShapes(); len(v) != 0 {
		t.Errorf("shape violations: %+v", v)
	}
}

// TestDefaultConfigWithoutScales: DefaultConfig is valid only with its
// scales; dropping them fails validation.
func TestDefaultConfigWithoutScales(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scales = nil
	if _, err := NewRunner(cfg); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestTimeoutClassification: a query whose budget has run out before it
// finishes is a Timeout, not an error.
func TestTimeoutClassification(t *testing.T) {
	cfg := miniConfig(t)
	cfg.Timeout = time.Nanosecond // expired when the engine first checks it
	cfg.QueryIDs = []string{"q4"}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(rep.Runs))
	}
	if rep.Runs[0].Outcome != Timeout {
		t.Fatalf("outcome = %v, want Timeout", rep.Runs[0].Outcome)
	}
}

func TestParseScales(t *testing.T) {
	got, err := ParseScales("10k, 250k,25M")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Triples != 10_000 || got[2].Triples != 25_000_000 {
		t.Fatalf("ParseScales = %+v", got)
	}
	for _, bad := range []string{"", "huge", "10k,weird"} {
		if _, err := ParseScales(bad); err == nil {
			t.Errorf("ParseScales(%q) should fail", bad)
		}
	}
}

func TestMemoryExhaustionClassification(t *testing.T) {
	cfg := miniConfig(t)
	cfg.QueryIDs = []string{"q4"} // materializes a large DISTINCT set
	cfg.MemLimitBytes = 1         // any sampled heap exceeds this
	cfg.Timeout = 30 * time.Second
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	run := rep.Runs[0]
	// The memory watcher samples every 10ms; Q4 on 10k usually survives
	// long enough to be caught, but a very fast machine could finish
	// first — accept either Memory or Success-but-flagged, never Error.
	if run.Outcome != MemoryExhausted && run.Outcome != Success {
		t.Fatalf("outcome = %v (%s), want MemoryExhausted", run.Outcome, run.Err)
	}
	if run.Outcome == Success {
		t.Skip("query finished before the first memory sample on this machine")
	}
}

func TestGlobalMeansPenalty(t *testing.T) {
	rep := &Report{Config: Config{
		Scales:         []Scale{{"10k", 10_000}},
		PenaltySeconds: 3600,
	}}
	rep.Runs = []QueryRun{
		{Query: "q1", Engine: "e", Scale: "10k", Outcome: Success, Wall: 2 * time.Second},
		{Query: "q2", Engine: "e", Scale: "10k", Outcome: Timeout, Wall: 50 * time.Millisecond},
	}
	means := rep.GlobalMeans()
	if len(means) != 1 {
		t.Fatalf("means = %+v", means)
	}
	m := means[0]
	if m.Failures != 1 || m.Queries != 2 {
		t.Fatalf("failures/queries = %d/%d", m.Failures, m.Queries)
	}
	wantArith := (2.0 + 3600.0) / 2
	if m.Arithmetic != wantArith {
		t.Errorf("arithmetic = %v, want %v", m.Arithmetic, wantArith)
	}
	// geometric mean of {2, 3600} = sqrt(7200) ≈ 84.85
	if m.Geometric < 84 || m.Geometric > 86 {
		t.Errorf("geometric = %v, want ~84.85", m.Geometric)
	}
}

func TestOutcomeLetters(t *testing.T) {
	for o, want := range map[Outcome]string{
		Success: "+", Timeout: "T", MemoryExhausted: "M", ExecError: "E",
	} {
		if o.Letter() != want {
			t.Errorf("Letter(%v) = %s, want %s", o, o.Letter(), want)
		}
	}
	if Success.String() != "Success" || Timeout.String() != "Timeout" {
		t.Error("outcome names broken")
	}
}

func TestRenderersProduceTables(t *testing.T) {
	cfg := miniConfig(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep.SortRuns()
	var buf bytes.Buffer
	rep.RenderAll(&buf)
	out := buf.String()
	for _, frag := range []string{
		"Table III", "Table VIII", "Table IV", "Table V",
		"Tables VI/VII", "Figure 5 (loading)", "Figures 5-8 series: q1",
		"data up to", "#Dist.Auth.",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("RenderAll output missing %q", frag)
		}
	}
	// Table IV must contain a success row of 17 cells.
	if !strings.Contains(out, "native") {
		t.Error("engine name missing from tables")
	}
}

func TestResultSizesAndRunLookup(t *testing.T) {
	rep := &Report{Config: Config{Scales: []Scale{{"10k", 1}}}}
	rep.Runs = []QueryRun{
		{Query: "q1", Engine: "native", Scale: "10k", Outcome: Success, Results: 1},
		{Query: "q4", Engine: "native", Scale: "10k", Outcome: Timeout},
	}
	sizes := rep.ResultSizes()
	if sizes["10k"]["q1"] != 1 {
		t.Error("successful result size missing")
	}
	if _, ok := sizes["10k"]["q4"]; ok {
		t.Error("failed runs must not contribute result sizes")
	}
	if _, ok := rep.Run("native", "10k", "q1"); !ok {
		t.Error("Run lookup failed")
	}
	if _, ok := rep.Run("native", "10k", "q99"); ok {
		t.Error("Run lookup invented a cell")
	}
}

func TestGeneratorExperimentAndFigures(t *testing.T) {
	stats, err := GeneratorExperiment(50_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFigure2a(&buf, stats)
	if !strings.Contains(buf.String(), "Figure 2(a)") {
		t.Error("figure 2a renderer broken")
	}
	buf.Reset()
	RenderFigure2b(&buf, stats)
	out := buf.String()
	if !strings.Contains(out, "~article") || !strings.Contains(out, "1940") {
		t.Errorf("figure 2b renderer broken: %s", out[:120])
	}
	buf.Reset()
	RenderFigure2c(&buf, stats, []int{1950})
	if !strings.Contains(buf.String(), "year 1950") {
		t.Error("figure 2c renderer broken")
	}
	buf.Reset()
	RenderTableIX(&buf, stats)
	if !strings.Contains(buf.String(), "pages") {
		t.Error("table IX renderer broken")
	}
}

func TestWriteFigureData(t *testing.T) {
	rep := &Report{Config: Config{
		Scales:         []Scale{{"10k", 10_000}, {"50k", 50_000}},
		PenaltySeconds: 3600,
	}}
	rep.Runs = []QueryRun{
		{Query: "q1", Engine: "native", Scale: "10k", Outcome: Success, Wall: 2 * time.Millisecond},
		{Query: "q1", Engine: "endpoint", Scale: "10k", Outcome: Success, Wall: 5 * time.Millisecond},
		{Query: "q1", Engine: "native", Scale: "50k", Outcome: Success, Wall: 3 * time.Millisecond},
		{Query: "q4", Engine: "endpoint", Scale: "10k", Outcome: Timeout},
	}
	rep.Loading = []LoadStats{
		{Scale: "10k", Engine: "native", Wall: 20 * time.Millisecond, Triples: 10000},
	}
	dir := t.TempDir()
	files, err := rep.WriteFigureData(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 { // q1.dat, q4.dat, loading.dat
		t.Fatalf("wrote %d files, want 3: %v", len(files), files)
	}
	q1, err := os.ReadFile(dir + "/q1.dat")
	if err != nil {
		t.Fatal(err)
	}
	s := string(q1)
	if !strings.Contains(s, "10k") || !strings.Contains(s, "0.002000") {
		t.Errorf("q1.dat missing data:\n%s", s)
	}
	q4, _ := os.ReadFile(dir + "/q4.dat")
	if !strings.Contains(string(q4), "Timeout") || !strings.Contains(string(q4), "3600") {
		t.Errorf("q4.dat must mark the failure with the penalty:\n%s", q4)
	}
	load, _ := os.ReadFile(dir + "/loading.dat")
	if !strings.Contains(string(load), "0.020000") {
		t.Errorf("loading.dat missing data:\n%s", load)
	}
}

func TestPaperScales(t *testing.T) {
	scales := PaperScales()
	if len(scales) != 6 || scales[5].Name != "25M" || scales[5].Triples != 25_000_000 {
		t.Errorf("PaperScales = %+v", scales)
	}
}

// TestSnapshotCacheAcrossRuns pins the work-directory cache contract:
// the second run of an identical configuration reuses the generated
// document (validated by the generator probe), reloads the binary
// snapshot, reports the same generation stats, and returns identical
// per-query counts; a regenerated document is parsed again, never
// served from the snapshot of the one it replaced.
func TestSnapshotCacheAcrossRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scales = []Scale{{"10k", 10_000}}
	cfg.Timeout = 30 * time.Second
	cfg.QueryIDs = fastQueries
	cfg.WorkDir = t.TempDir()

	run := func() *Report {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		rep.SortRuns()
		return rep
	}
	first := run()
	second := run()

	if got := first.Sources["10k"]; got != "ntriples" {
		t.Errorf("first run source = %q, want ntriples", got)
	}
	if got := second.Sources["10k"]; got != "snapshot" {
		t.Errorf("second run source = %q, want snapshot", got)
	}
	if first.GenStats["10k"].Triples != second.GenStats["10k"].Triples ||
		first.GenStats["10k"].EndYear != second.GenStats["10k"].EndYear {
		t.Errorf("cached generation stats diverge: %+v vs %+v",
			first.GenStats["10k"], second.GenStats["10k"])
	}
	for i := range first.Runs {
		a, b := first.Runs[i], second.Runs[i]
		if a.Query != b.Query || a.Results != b.Results {
			t.Errorf("query %s: counts diverge across cache hit (%d vs %d)", a.Query, a.Results, b.Results)
		}
	}

	// A generator change (simulated by corrupting the probe) must
	// invalidate the cache and regenerate.
	docs, err := filepath.Glob(filepath.Join(cfg.WorkDir, "*"+manifestExt))
	if err != nil || len(docs) != 1 {
		t.Fatalf("manifest glob: %v %v", docs, err)
	}
	b, err := os.ReadFile(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(docs[0], bytes.Replace(b, []byte(`"probe_sha256":"`), []byte(`"probe_sha256":"dead`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	third := run()
	if got := third.Sources["10k"]; got != "ntriples" {
		t.Errorf("probe-invalidated run source = %q, want ntriples (regeneration)", got)
	}
}

// TestRefusedSnapshotCacheReparses: a cached snapshot the reader
// refuses — here one stamped with the previous format version — costs
// one run its fast path, not the run: it re-parses the document, and
// the snapshot it rewrites is read by the next run.
func TestRefusedSnapshotCacheReparses(t *testing.T) {
	cfg := miniConfig(t)
	cfg.QueryIDs = []string{"q1"}
	source := func() string {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Sources["10k"]
	}
	if got := source(); got != "ntriples" {
		t.Fatalf("first run source = %q, want ntriples", got)
	}
	snaps, err := filepath.Glob(filepath.Join(cfg.WorkDir, "*"+snapshot.Ext))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot glob: %v %v", snaps, err)
	}
	b, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[8:12], 1) // the version follows the 8 magic bytes
	if err := os.WriteFile(snaps[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := source(); got != "ntriples" {
		t.Errorf("run over a refused cache: source = %q, want ntriples", got)
	}
	if got := source(); got != "snapshot" {
		t.Errorf("run after the cache was rewritten: source = %q, want snapshot", got)
	}
}
