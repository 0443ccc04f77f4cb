package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/server"
	"sp2bench/internal/snapshot"
)

const (
	smokeScale = 10_000
	// smokeSeed is not the pinned seed: expected counts come from the
	// in-process count pass, as they do for every seed but 1.
	smokeSeed = 2
)

// small returns the workload at smoke scale with a tail long enough for
// the traced run's delta and a few inserts.
func small(w workload) workload {
	w.scale = smokeScale
	w.tailTriples = (deltaBatches + 20) * batchTriples
	return w
}

// loopback serves a snapshot the way cmd/sp2bserve wires it, on a
// loopback listener inside the test process.
func loopback(t *testing.T, snapshotPath string, updates bool) *httptest.Server {
	t.Helper()
	st, err := snapshot.ReadFile(snapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	cfg := server.Config{Timeout: opTimeout}
	if updates {
		live := mvcc.New(st, mvcc.MergePolicy{})
		t.Cleanup(live.Close)
		cfg.Live, cfg.Opts = live, engine.Native()
		mux.Handle("/update", server.UpdateHandler(live, nil))
		mux.Handle("/stats", server.LiveStatsHandler(live))
	} else {
		cfg.Engine = engine.New(st, engine.Native())
		mux.Handle("/stats", server.StatsHandler(st))
	}
	h, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux.Handle("/sparql", h)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestSmokeEveryWorkload runs each workload at 10k triples against an
// in-process server: every response must pass its check, and the traced
// run over the same document must yield every per-layer metric with the
// request spans' children summing to the whole.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, full := range workloads {
		w := small(full)
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			templates, err := w.templates()
			if err != nil {
				t.Fatal(err)
			}
			order := schedule(smokeSeed, len(templates))
			tr := newTracer(w.name)
			ds, err := buildDataset(tr, nil, t.TempDir(), smokeSeed, w.scale, w.tailTriples)
			if err != nil {
				t.Fatal(err)
			}
			ts := loopback(t, ds.snapshot, w.updates)
			var expected map[string]int64
			if !w.updates {
				if expected, err = expectedCounts(ctx, ds.store, templates); err != nil {
					t.Fatal(err)
				}
			}
			base, err := statsTriples(ctx, ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			if base != int64(ds.store.Len()) {
				t.Fatalf("/stats says %d triples, the document has %d", base, ds.store.Len())
			}

			res := runLoad(ctx, loadConfig{
				base: ts.URL, templates: templates, order: order, clients: w.clients, expected: expected,
				batches: ds.batches, window: 50 * time.Millisecond, alive: func() bool { return true },
			})
			if res.failed != 0 || len(res.failures) != 0 {
				t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.failures)
			}
			if res.attempted < w.clients*len(templates) || res.opsPerS <= 0 {
				t.Fatalf("attempted %d operations at %v/s", res.attempted, res.opsPerS)
			}
			for i, ts := range res.perTemplate {
				if want, ok := expected[templates[i].query]; ok && ts.rows != want {
					t.Errorf("%s: %d rows, want %d", templates[i].name, ts.rows, want)
				}
				if len(ts.samples) < w.clients {
					t.Errorf("%s: %d samples from %d clients", templates[i].name, len(ts.samples), w.clients)
				}
			}
			if w.updates {
				final, err := statsTriples(ctx, ts.URL)
				if err != nil {
					t.Fatal(err)
				}
				if res.inserted == 0 || final != base+res.inserted {
					t.Errorf("/stats says %d triples after %d acknowledged inserts on %d", final, res.inserted, base)
				}
			}

			e2e := summarizeLoad(templates, res, []float64{1}, 1)
			if _, err := pick(endToEndMetrics, e2e.Values); err != nil {
				t.Error(err)
			}
			if err := tracedRun(ctx, tr, w, templates, order, ds, 0); err != nil {
				t.Fatal(err)
			}
			l := summarizeSpans(tr, templates, e2e)
			if _, err := pick(perLayerMetrics, l.Values); err != nil {
				t.Error(err)
			}
			if share := l.Values["trace.unattributed_share"]; share < 0 || share >= 0.05 {
				t.Errorf("request spans leave %.1f%% of their time to no child span; want < 5%%", 100*share)
			}
			checkSpans(t, tr)
		})
	}
}

// checkSpans asserts the span tree is well formed and that the counts a
// single goroutine produces repeat from cycle to cycle.
func checkSpans(t *testing.T, tr *tracer) {
	t.Helper()
	covered := map[int]time.Duration{}
	parseAllocs := map[string][]uint64{}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.EndNS < s.StartNS || s.Workload == "" || s.ID != i+1 {
			t.Fatalf("malformed span %+v", *s)
		}
		if s.Parent != 0 {
			p := tr.spans[s.Parent-1]
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Request != p.Request {
				t.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
			covered[s.Parent] += s.duration()
		}
		if s.Name == spanParse {
			parseAllocs[s.Template] = append(parseAllocs[s.Template], s.Allocs)
		}
	}
	for i := range tr.spans {
		if s := &tr.spans[i]; covered[s.ID] > s.duration() {
			t.Errorf("children of span %d (%s) take %v, the span %v", s.ID, s.Name, covered[s.ID], s.duration())
		}
	}
	for template, allocs := range parseAllocs {
		for _, a := range allocs {
			if a == 0 || float64(a) > 1.01*float64(allocs[0]) || float64(a) < 0.99*float64(allocs[0]) {
				t.Errorf("%s: parse allocations %v do not repeat within 1%%", template, allocs)
				break
			}
		}
	}
}

// TestRealServer builds cmd/sp2bserve, runs a downsized workload
// against the child through the same code path as `go run ./bench
// -workload … -trace 1`, and then checks that a server killed mid-run
// turns into counted failures, not a hang.
func TestRealServer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns sp2bserve")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	work := t.TempDir()
	bin, err := buildServer(ctx, work)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := workloadByName("mixed-update-250k")
	w := small(full)
	r := runner{bin: bin, work: work, out: work, env: recordEnv(ctx, smokeSeed), seed: smokeSeed, window: 300 * time.Millisecond}
	var out bytes.Buffer
	if err := r.runWorkload(ctx, &out, w, true, true); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("result %+v", res)
	}
	for _, name := range []string{"setup_s", "ops_per_s", "geomean_ms", "ttfb_ms", "peak_rss_mb", "p99_ms", "fail_ratio"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("output does not mention %s", name)
		}
	}
	raw, err := os.ReadFile(filepath.Join(work, "trace-"+w.name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Env   environment
		Spans []span
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 || doc.Env.GoVersion == "" || doc.Env.Seed != smokeSeed {
		t.Errorf("trace file: %v, %d spans, env %+v", err, len(doc.Spans), doc.Env)
	}
	if left, _ := filepath.Glob(filepath.Join(work, "run-*")); len(left) != 0 {
		t.Errorf("run directories left behind: %v", left)
	}

	// A crash: the server dies 100 ms into a window that would last a
	// minute.
	templates, err := w.templates()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := buildDataset(nil, nil, t.TempDir(), smokeSeed, w.scale, w.tailTriples)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(ctx, bin, ds.snapshot, true)
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(100 * time.Millisecond)
		srv.stop()
	}()
	start := time.Now()
	crashed := runLoad(ctx, loadConfig{
		base: srv.base, templates: templates, order: schedule(smokeSeed, len(templates)), clients: w.clients,
		batches: ds.batches, window: time.Minute, alive: srv.alive,
	})
	<-killed
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("a dead server kept the load generator for %v", took)
	}
	if crashed.failed == 0 && len(crashed.failures) == 0 {
		t.Errorf("a dead server produced no failure: %+v", crashed)
	}
	if srv.alive() {
		t.Error("server still alive after stop")
	}
}
