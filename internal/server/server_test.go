package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/results"
	"sp2bench/internal/store"
)

func testEngine() *engine.Engine {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	a1 := rdf.IRI("http://example.org/a1")
	a2 := rdf.IRI("http://example.org/a2")
	add(a1, rdf.IRI(rdf.RDFType), rdf.IRI(rdf.NSBench+"Article"))
	add(a1, rdf.IRI(rdf.NSDC+"title"), rdf.String("First Paper"))
	add(a2, rdf.IRI(rdf.RDFType), rdf.IRI(rdf.NSBench+"Article"))
	add(a2, rdf.IRI(rdf.NSDC+"title"), rdf.String("Second Paper"))
	st.Freeze()
	return engine.New(st, engine.Native())
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.Engine == nil && cfg.Live == nil {
		cfg.Engine = testEngine()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

const selectTitles = `SELECT ?t WHERE { ?x rdf:type bench:Article . ?x dc:title ?t } ORDER BY ?t`

func TestGetQueryJSON(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "?query=" + url.QueryEscape(selectTitles))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("content type = %q", ct)
	}
	res, err := results.ParseJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Value != "First Paper" {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestPostBindings(t *testing.T) {
	ts := newTestServer(t, Config{})

	// Form-encoded POST.
	resp, err := http.PostForm(ts.URL, url.Values{"query": {selectTitles}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("form POST status = %d", resp.StatusCode)
	}
	res, err := results.ParseJSON(resp.Body)
	if err != nil || res.Len() != 2 {
		t.Fatalf("form POST: len=%d err=%v", res.Len(), err)
	}

	// Direct application/sparql-query POST.
	resp2, err := http.Post(ts.URL, "application/sparql-query", strings.NewReader(selectTitles))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("sparql-query POST status = %d", resp2.StatusCode)
	}
	res2, err := results.ParseJSON(resp2.Body)
	if err != nil || res2.Len() != 2 {
		t.Fatalf("sparql-query POST: len=%d err=%v", res2.Len(), err)
	}
}

func TestAsk(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "?query=" + url.QueryEscape(`ASK { ?x rdf:type bench:Article }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	res, err := results.ParseJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsAsk() || !*res.Boolean {
		t.Fatalf("ASK result = %+v", res)
	}
}

func TestConstructNTriples(t *testing.T) {
	ts := newTestServer(t, Config{})
	q := `CONSTRUCT { ?x dc:title ?t } WHERE { ?x dc:title ?t }`
	resp, err := http.Get(ts.URL + "?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != results.NTriplesContentType {
		t.Fatalf("content type = %q", ct)
	}
	triples, err := rdf.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 2 {
		t.Fatalf("triples = %v", triples)
	}
}

func TestContentNegotiation(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		accept string
		wantCT string
	}{
		{"application/sparql-results+xml", "application/sparql-results+xml"},
		{"text/csv", "text/csv; charset=utf-8"},
		{"text/tab-separated-values", "text/tab-separated-values; charset=utf-8"},
		{"text/plain", "text/plain; charset=utf-8"},
		{"*/*", "application/sparql-results+json"},
		{"text/csv;q=0.5, application/sparql-results+xml", "application/sparql-results+xml"},
		{"application/json", "application/sparql-results+json"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"?query="+url.QueryEscape(selectTitles), nil)
		req.Header.Set("Accept", c.accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("Accept %q: status = %d", c.accept, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != c.wantCT {
			t.Errorf("Accept %q: content type = %q, want %q", c.accept, ct, c.wantCT)
		}
	}

	// A header naming only unsupported types is a negotiation failure.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"?query="+url.QueryEscape(selectTitles), nil)
	req.Header.Set("Accept", "application/pdf")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Errorf("unsupported Accept: status = %d, want 406", resp.StatusCode)
	}
}

func TestErrorMapping(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"parse error is 400", func() (*http.Response, error) {
			return http.Get(ts.URL + "?query=" + url.QueryEscape("SELECT WHERE"))
		}, http.StatusBadRequest},
		{"missing query is 400", func() (*http.Response, error) {
			return http.Get(ts.URL)
		}, http.StatusBadRequest},
		{"bad method is 405", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL, nil)
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
		{"bad content type is 415", func() (*http.Response, error) {
			return http.Post(ts.URL, "application/sparql-update", strings.NewReader("x"))
		}, http.StatusUnsupportedMediaType},
		{"oversized form body is 413", func() (*http.Response, error) {
			big := "query=" + strings.Repeat("x", maxQueryBytes+1)
			return http.Post(ts.URL, "application/x-www-form-urlencoded", strings.NewReader(big))
		}, http.StatusRequestEntityTooLarge},
		{"oversized sparql-query body is 413", func() (*http.Response, error) {
			return http.Post(ts.URL, "application/sparql-query",
				strings.NewReader(strings.Repeat("x", maxQueryBytes+1)))
		}, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

func TestExpiredTimeoutIs503(t *testing.T) {
	// A negative timeout yields an already-expired context — the
	// deterministic stand-in for a query exceeding its budget.
	ts := newTestServer(t, Config{Timeout: -time.Millisecond})
	resp, err := http.Get(ts.URL + "?query=" + url.QueryEscape(selectTitles))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestCapacityQueueRespectsContext(t *testing.T) {
	s, err := New(Config{Engine: testEngine(), MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.sem <- struct{}{} // occupy the only slot
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/?query="+url.QueryEscape(selectTitles), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	<-s.sem
}

func TestConcurrentRequests(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 2})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "?query=" + url.QueryEscape(selectTitles))
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				done <- &url.Error{Op: "status", URL: ts.URL}
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		want   results.Format
		ok     bool
	}{
		{"", results.JSON, true},
		{"*/*", results.JSON, true},
		{"text/*", results.CSV, true},
		{"application/sparql-results+json", results.JSON, true},
		{"application/sparql-results+xml;q=0.9, text/csv", results.CSV, true},
		{"text/csv;q=0", results.JSON, false},
		{"application/pdf", results.JSON, false},
		{"garbage;;;", results.JSON, true}, // unparseable header = absent
		// q outside RFC 9110's qvalue grammar makes the range unparseable.
		{"text/csv;q=NaN, application/sparql-results+json", results.JSON, true},
		{"text/csv;q=5, application/sparql-results+json", results.JSON, true},
		{"text/csv;q=Inf, application/sparql-results+xml;q=0.9", results.XML, true},
		{"text/csv;q=0.001, application/sparql-results+xml;q=0.", results.CSV, true},
		{"text/csv;q=1.000", results.CSV, true},
	}
	for _, c := range cases {
		got, ok := negotiate(c.accept)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("negotiate(%q) = (%v, %v), want (%v, %v)", c.accept, got, ok, c.want, c.ok)
		}
	}
}

func TestGraphAcceptable(t *testing.T) {
	cases := map[string]bool{
		"":                                     true,
		"application/n-triples":                true,
		"text/*;q=0.5":                         true,
		"text/csv":                             false,
		"application/n-triples;q=0":            false,
		"application/n-triples;q=5, text/csv":  false, // malformed range skipped
		"text/csv;q=NaN":                       true,  // nothing parseable = absent
		"application/n-triples;q=1., text/csv": true,
	}
	for accept, want := range cases {
		if got := graphAcceptable(accept); got != want {
			t.Errorf("graphAcceptable(%q) = %v, want %v", accept, got, want)
		}
	}
}

func TestStatsHandler(t *testing.T) {
	st := store.New()
	st.Add(rdf.NewTriple(rdf.IRI("http://example.org/a"), rdf.IRI("http://example.org/p"), rdf.String("v")))
	st.Freeze()
	ts := httptest.NewServer(StatsHandler(st))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var got struct {
		Triples    int   `json:"triples"`
		Terms      int   `json:"terms"`
		IndexBytes int64 `json:"index_bytes"`
		TermBytes  int64 `json:"term_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Triples != 1 || got.Terms != 3 || got.IndexBytes == 0 || got.TermBytes == 0 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestAnalyzeParameter(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "?analyze=1&query=" + url.QueryEscape(selectTitles))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var doc struct {
		Rows   int           `json:"rows"`
		WallNS int64         `json:"wall_ns"`
		Trace  *engine.Trace `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Rows != 2 {
		t.Fatalf("rows = %d, want 2", doc.Rows)
	}
	if doc.Trace == nil || doc.Trace.Root == nil {
		t.Fatal("no trace in analyze response")
	}
	if doc.Trace.Rows != 2 {
		t.Fatalf("trace root rows = %d, want 2", doc.Trace.Rows)
	}
}
