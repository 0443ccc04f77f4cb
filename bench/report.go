package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. The JSON shape is the one the
// benchmark contract fixes for the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric of BENCHMARK.json; the tables below must
// list the same names and units as that file (TestBenchmarkJSON holds
// them together).
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"geomean_ms", "ms"},
	{"ttfb_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"gen.triples_per_s", "1/s"},
	{"store.load_triples_per_s", "1/s"},
	{"snapshot.write_mb_per_s", "MB/s"},
	{"snapshot.read_mb_per_s", "MB/s"},
	{"sparql.parse_us", "us"},
	{"engine.compile_us", "us"},
	{"engine.execute_ms", "ms"},
	{"engine.materialize_ms", "ms"},
	{"results.serialize_ms", "ms"},
	{"results.bytes_per_row", "B"},
	{"store.scan_ns_per_triple", "ns"},
	{"mvcc.merged_scan_ratio", "ratio"},
	{"mvcc.snapshot_ns", "ns"},
	{"mvcc.apply_us_per_triple", "us"},
	{"mvcc.merges", "count"},
	{"mvcc.merge_s", "s"},
	{"server.transport_us", "us"},
	{"trace.unattributed_share", "ratio"},
}

// pick builds the result line's metrics object from computed values.
func pick(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// templateRow is the end-to-end view of one template.
type templateRow struct {
	Template   string  `json:"template"`
	Samples    int     `json:"samples"`
	Failed     int     `json:"failed"`
	MedianMS   float64 `json:"median_ms"`
	Q1MS       float64 `json:"q1_ms"`
	Q3MS       float64 `json:"q3_ms"`
	TTFBMedian float64 `json:"ttfb_median_ms"`
	Rows       int64   `json:"rows"`
	Bytes      int64   `json:"bytes"`
}

// endToEnd holds everything the untraced run measured.
type endToEnd struct {
	Setups    []float64          `json:"setup_runs_s"`
	Templates []templateRow      `json:"templates"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	P99MS     float64            `json:"p99_ms,omitempty"`
	P99OK     bool               `json:"p99_reported"`
	ClientCPU float64            `json:"client_cpu_share"`
	ServerCPU float64            `json:"server_cpu_share"`
	Values    map[string]float64 `json:"metrics"`
}

// summarizeLoad turns the load generator's samples into the end-to-end
// metrics: per-template medians first, then the paper's geometric mean
// over templates, so a frequent cheap template cannot drown a rare
// expensive one.
func summarizeLoad(templates []template, res *loadResult, setups []float64, rssMB float64) *endToEnd {
	e := &endToEnd{
		Setups: setups, Attempted: res.attempted, Failed: res.failed, Failures: res.failures,
		Values: map[string]float64{},
	}
	var all, medians, ttfbs []float64
	for i, ts := range res.perTemplate {
		row := templateRow{Template: templates[i].name, Samples: len(ts.samples), Rows: ts.rows, Bytes: ts.bytes}
		var latency, ttfb []float64
		for _, s := range ts.samples {
			latency = append(latency, ms(s.latency))
			ttfb = append(ttfb, ms(s.ttfb))
			if s.failed {
				row.Failed++
			}
		}
		if len(ts.samples) > 0 {
			sorted := sortedCopy(latency)
			row.MedianMS, row.Q1MS, row.Q3MS = quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75)
			row.TTFBMedian = median(ttfb)
			medians = append(medians, row.MedianMS)
			ttfbs = append(ttfbs, row.TTFBMedian)
			all = append(all, latency...)
		}
		e.Templates = append(e.Templates, row)
	}
	sort.Float64s(all)
	e.P99MS, e.P99OK = p99(all)
	if len(medians) > 0 {
		e.Values["geomean_ms"] = geomean(medians)
		e.Values["ttfb_ms"] = geomean(ttfbs)
	}
	e.Values["setup_s"] = median(setups)
	e.Values["ops_per_s"] = res.opsPerS
	e.Values["peak_rss_mb"] = rssMB
	return e
}

// print writes the human-readable report of the untraced run.
func (e *endToEnd) print(w io.Writer) {
	fmt.Fprintf(w, "end-to-end (client-observed, nothing traced)\n")
	for _, d := range endToEndMetrics {
		note := ""
		if d.name == "setup_s" {
			note = fmt.Sprintf("  median of %d set-ups %.4f", len(e.Setups), e.Setups)
		}
		fmt.Fprintf(w, "  %-12s %12.4f %-4s%s\n", d.name, e.Values[d.name], d.unit, note)
	}
	if e.P99OK {
		fmt.Fprintf(w, "  %-12s %12.4f %-4s  diagnostic: over all %d ops\n", "p99_ms", e.P99MS, "ms", e.Attempted)
	} else {
		fmt.Fprintf(w, "  %-12s %12s %-4s  diagnostic: not reported, %d ops leave fewer than %d beyond it\n",
			"p99_ms", "-", "ms", e.Attempted, tailBeyond)
	}
	ratio := 0.0
	if e.Attempted > 0 {
		ratio = float64(e.Failed) / float64(e.Attempted)
	}
	fmt.Fprintf(w, "  %-12s %12.6f %-4s  %d failed of %d attempted\n", "fail_ratio", ratio, "", e.Failed, e.Attempted)
	fmt.Fprintf(w, "  cpu: client %.0f%%, server %.0f%% of all cores over the run\n", 100*e.ClientCPU, 100*e.ServerCPU)
	fmt.Fprintf(w, "  %-10s %7s %4s %11s %11s %11s %11s %8s %10s\n",
		"template", "samples", "fail", "median_ms", "q1_ms", "q3_ms", "ttfb_ms", "rows", "bytes")
	for _, r := range e.Templates {
		fmt.Fprintf(w, "  %-10s %7d %4d %11.4f %11.4f %11.4f %11.4f %8d %10d\n",
			r.Template, r.Samples, r.Failed, r.MedianMS, r.Q1MS, r.Q3MS, r.TTFBMedian, r.Rows, r.Bytes)
	}
	for _, f := range e.Failures {
		fmt.Fprintf(w, "  FAILURE %s\n", f)
	}
}

// layerRow is the traced view of one template: medians over the traced
// cycles, in milliseconds.
type layerRow struct {
	Template      string  `json:"template"`
	Cycles        int     `json:"cycles"`
	RequestMS     float64 `json:"request_ms"`
	ParseMS       float64 `json:"parse_ms"`
	PinMS         float64 `json:"snapshot_ms"`
	EvalMS        float64 `json:"eval_ms"`
	SerializeMS   float64 `json:"serialize_ms"`
	CompileMS     float64 `json:"compile_ms"`
	CountMS       float64 `json:"count_ms"`
	ExecuteMS     float64 `json:"execute_ms"`
	MaterializeMS float64 `json:"materialize_ms"`
	EndToEndMS    float64 `json:"end_to_end_ms"`
	TransportMS   float64 `json:"transport_ms"`
	Rows          int64   `json:"rows"`
	Bytes         int64   `json:"bytes"`
	Allocs        uint64  `json:"allocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
}

// layers holds everything derived from the traced run's spans.
type layers struct {
	Templates []layerRow         `json:"templates"`
	Values    map[string]float64 `json:"metrics"`
	// Shares is each layer's mean time per operation as a share of the
	// mean end-to-end latency per operation: the layer → end-to-end map,
	// measured.
	Shares     map[string]float64 `json:"shares_of_end_to_end"`
	OverheadNS int64              `json:"tracer_stopped_ns"`
}

// summarizeSpans derives the per-layer metrics from the recorded spans
// and the end-to-end run's per-template medians.
func summarizeSpans(tr *tracer, templates []template, e2e *endToEnd) *layers {
	type key struct{ name, template string }
	durs := map[key][]float64{} // ms
	last := map[key]*span{}
	children := map[int]time.Duration{}
	byName := map[string][]*span{}
	for i := range tr.spans {
		s := &tr.spans[i]
		k := key{s.Name, s.Template}
		durs[k] = append(durs[k], ms(s.duration()))
		last[k] = s
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent != 0 {
			children[s.Parent] += s.duration()
		}
	}
	// rate is the median over the spans of a name of a per-span figure.
	rate := func(name string, f func(s *span) float64) float64 {
		var vals []float64
		for _, s := range byName[name] {
			vals = append(vals, f(s))
		}
		return median(vals)
	}
	triplesPerS := func(s *span) float64 { return float64(s.Rows) / s.duration().Seconds() }
	mbPerS := func(s *span) float64 { return float64(s.Bytes) / 1e6 / s.duration().Seconds() }
	nsPerRow := func(s *span) float64 { return float64(s.duration()) / float64(s.Rows) }
	med := func(name, template string) float64 {
		if d := durs[key{name, template}]; len(d) > 0 {
			return median(d)
		}
		return 0
	}

	l := &layers{Values: map[string]float64{}, Shares: map[string]float64{}, OverheadNS: int64(tr.stopped)}
	var sum layerRow // sums over the cycle's templates
	var queries, ops int
	var rows, bytes int64
	for i, t := range templates {
		row := layerRow{Template: t.name, EndToEndMS: e2e.Templates[i].MedianMS}
		root := spanRequest
		if t.isInsert() {
			root = spanUpdate
		}
		row.Cycles = len(durs[key{root, t.name}])
		row.RequestMS = med(root, t.name)
		if s := last[key{root, t.name}]; s != nil {
			row.Rows, row.Bytes, row.Allocs, row.AllocBytes = s.Rows, s.Bytes, s.Allocs, s.AllocBytes
		}
		row.TransportMS = row.EndToEndMS - row.RequestMS
		ops++
		sum.EndToEndMS += row.EndToEndMS
		sum.RequestMS += row.RequestMS
		sum.TransportMS += row.TransportMS
		if !t.isInsert() {
			row.ParseMS = med(spanParse, t.name)
			row.PinMS = med(spanPin, t.name) + med(spanUnpin, t.name)
			row.EvalMS = med(spanEval, t.name)
			row.SerializeMS = med(spanSerialize, t.name)
			row.CompileMS = med(spanExplain, t.name)
			row.CountMS = med(spanCount, t.name)
			// Differences are taken within a cycle and then the median:
			// the probe runs right after its request, so a slow stretch
			// of the machine hits both and cancels.
			row.ExecuteMS = max(0, medianDiff(durs[key{spanCount, t.name}], durs[key{spanExplain, t.name}]))
			row.MaterializeMS = max(0, medianDiff(durs[key{spanEval, t.name}], durs[key{spanCount, t.name}]))
			queries++
			sum.ParseMS += row.ParseMS
			sum.PinMS += row.PinMS
			sum.CompileMS += row.CompileMS
			sum.ExecuteMS += row.ExecuteMS
			sum.MaterializeMS += row.MaterializeMS
			sum.SerializeMS += row.SerializeMS
			rows += row.Rows
			bytes += row.Bytes
		}
		l.Templates = append(l.Templates, row)
	}

	perQuery := func(totalMS float64) float64 { return totalMS / float64(max(1, queries)) }
	v := l.Values
	v["sparql.parse_us"] = 1000 * perQuery(sum.ParseMS)
	v["engine.compile_us"] = 1000 * perQuery(sum.CompileMS)
	v["engine.execute_ms"] = perQuery(sum.ExecuteMS)
	v["engine.materialize_ms"] = perQuery(sum.MaterializeMS)
	v["results.serialize_ms"] = perQuery(sum.SerializeMS)
	v["results.bytes_per_row"] = float64(bytes) / float64(max(1, rows))
	v["server.transport_us"] = 1000 * sum.TransportMS / float64(max(1, ops))

	v["gen.triples_per_s"] = rate(spanGenerate, triplesPerS)
	v["store.load_triples_per_s"] = rate(spanLoad, triplesPerS)
	v["snapshot.write_mb_per_s"] = rate(spanSnapWrite, mbPerS)
	v["snapshot.read_mb_per_s"] = rate(spanSnapRead, mbPerS)
	v["store.scan_ns_per_triple"] = rate(spanScan, nsPerRow)
	v["mvcc.merged_scan_ratio"] = rate(spanScanMVCC, nsPerRow) / v["store.scan_ns_per_triple"]
	v["mvcc.snapshot_ns"] = rate(spanPinLoop, nsPerRow)
	var apply time.Duration
	for _, s := range byName[spanApply] {
		apply += s.duration()
	}
	v["mvcc.apply_us_per_triple"] = float64(apply.Microseconds()) / float64(max(1, len(byName[spanApply])*batchTriples))
	if s := last[key{spanMerge, ""}]; s != nil {
		v["mvcc.merges"] = float64(s.Rows)
		v["mvcc.merge_s"] = s.duration().Seconds()
	}

	// The check that the parts sum to the whole: time inside request
	// spans that no child span covers.
	var whole, covered time.Duration
	for _, name := range []string{spanRequest, spanUpdate} {
		for _, s := range byName[name] {
			whole += s.duration()
			covered += children[s.ID]
		}
	}
	if whole > 0 {
		v["trace.unattributed_share"] = float64(whole-covered) / float64(whole)
	}

	if sum.EndToEndMS > 0 {
		for name, part := range map[string]float64{
			"server.transport": sum.TransportMS, "sparql.parse": sum.ParseMS, "mvcc.snapshot": sum.PinMS,
			"engine.compile": sum.CompileMS, "engine.execute": sum.ExecuteMS,
			"engine.materialize": sum.MaterializeMS, "results.serialize": sum.SerializeMS,
		} {
			l.Shares[name] = part / sum.EndToEndMS
		}
	}
	return l
}

// medianDiff is the median of a[i]-b[i] over the cycles both have; 0
// when there are none.
func medianDiff(a, b []float64) float64 {
	n := min(len(a), len(b))
	if n == 0 {
		return 0
	}
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = a[i] - b[i]
	}
	return median(diffs)
}

// print writes the human-readable report of the traced run.
func (l *layers) print(w io.Writer) {
	fmt.Fprintf(w, "per layer (traced run: in process, one goroutine)\n")
	for _, d := range perLayerMetrics {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", d.name, l.Values[d.name], d.unit)
	}
	names := make([]string, 0, len(l.Shares))
	for name := range l.Shares {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return l.Shares[names[i]] > l.Shares[names[j]] })
	var parts []string
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", name, 100*l.Shares[name]))
	}
	fmt.Fprintf(w, "  share of the mean end-to-end latency per op: %s\n", strings.Join(parts, ", "))
	fmt.Fprintf(w, "  tracer stopped its clock for %v in total (excluded from every span)\n", time.Duration(l.OverheadNS).Round(time.Millisecond))
	fmt.Fprintf(w, "  %-10s %6s %10s %9s %9s %10s %10s %10s %10s %10s %8s %10s %9s\n",
		"template", "cycles", "request_ms", "parse_ms", "compile", "execute_ms", "material.", "serialize", "e2e_ms", "transport", "rows", "bytes", "allocs")
	for _, r := range l.Templates {
		fmt.Fprintf(w, "  %-10s %6d %10.4f %9.4f %9.4f %10.4f %10.4f %10.4f %10.4f %10.4f %8d %10d %9d\n",
			r.Template, r.Cycles, r.RequestMS, r.ParseMS, r.CompileMS, r.ExecuteMS, r.MaterializeMS,
			r.SerializeMS, r.EndToEndMS, r.TransportMS, r.Rows, r.Bytes, r.Allocs)
	}
}
