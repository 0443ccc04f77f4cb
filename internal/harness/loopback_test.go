package harness

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sp2bench/internal/client"
	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/queries"
	"sp2bench/internal/server"
	"sp2bench/internal/store"
)

// TestLoopbackEndpointEquivalence proves the full protocol circle: the
// native engine is served over HTTP by internal/server, the harness
// benchmarks that endpoint through internal/client, and every benchmark
// query's result count at 10k scale matches the in-process engine —
// first under the sequential protocol, then with concurrent clients
// sharing the server.
func TestLoopbackEndpointEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 10k document and runs the full query set twice over HTTP")
	}

	var doc bytes.Buffer
	g, err := gen.New(gen.DefaultParams(10_000), &doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if _, err := st.Load(bytes.NewReader(doc.Bytes())); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(st, engine.Native())

	srv, err := server.New(server.Config{
		Engine:        eng,
		Timeout:       time.Minute,
		MaxConcurrent: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Ground truth: in-process counts through the same executor the
	// harness's local backends use.
	inproc := map[string]int{}
	ex := newEngineExecutor(eng)
	for _, q := range queries.All() {
		n, err := ex.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s in-process: %v", q.ID, err)
		}
		inproc[q.ID] = n
	}

	cfg := DefaultConfig()
	cfg.Endpoint = ts.URL
	cfg.Timeout = time.Minute
	cfg.Scales = nil // ignored in endpoint mode

	t.Run("sequential", func(t *testing.T) {
		runner, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkEndpointRuns(t, rep, inproc)
	})

	// Three clients, each with its own connection, start the query list
	// at different offsets so different queries are in flight at once;
	// concurrency may change latencies, never answers.
	t.Run("concurrent", func(t *testing.T) {
		qs := queries.All()
		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ex := newEndpointExecutor(client.New(ts.URL))
				for i := range qs {
					q := qs[(i+c)%len(qs)]
					n, err := ex.Execute(context.Background(), q)
					if err != nil {
						t.Errorf("client %d %s: %v", c, q.ID, err)
						continue
					}
					if n != inproc[q.ID] {
						t.Errorf("client %d %s: endpoint count %d != in-process count %d", c, q.ID, n, inproc[q.ID])
					}
				}
			}(c)
		}
		wg.Wait()
	})
}

// TestRemoteServerTimeoutClassifiedAsTimeout pins the outcome mapping
// for the split-budget case: when the endpoint's own per-query limit
// expires first (a 503 from the server) while the harness's budget is
// still open, the run is a Timeout — the same class the in-process
// engines get — not an evaluation error.
func TestRemoteServerTimeoutClassifiedAsTimeout(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "query timed out", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	cfg := DefaultConfig()
	cfg.Endpoint = ts.URL
	cfg.QueryIDs = []string{"q1"}
	cfg.Timeout = time.Minute
	runner, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	if rep.Runs[0].Outcome != Timeout {
		t.Fatalf("outcome = %v (%s), want Timeout", rep.Runs[0].Outcome, rep.Runs[0].Err)
	}
}

// checkEndpointRuns asserts one successful cell per benchmark query
// whose count matches the in-process ground truth.
func checkEndpointRuns(t *testing.T, rep *Report, inproc map[string]int) {
	t.Helper()
	if len(rep.Runs) != len(queries.All()) {
		t.Fatalf("runs = %d, want %d", len(rep.Runs), len(queries.All()))
	}
	for _, run := range rep.Runs {
		if run.Engine != "endpoint" || run.Scale != "remote" {
			t.Errorf("%s: labeled (%s, %s)", run.Query, run.Engine, run.Scale)
		}
		if run.Outcome != Success {
			t.Errorf("%s: outcome %v (%s)", run.Query, run.Outcome, run.Err)
			continue
		}
		want, ok := inproc[run.Query]
		if !ok {
			t.Errorf("%s: no in-process ground truth", run.Query)
			continue
		}
		if run.Results != want {
			t.Errorf("%s: endpoint count %d != in-process count %d", run.Query, run.Results, want)
		}
	}
}
