package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/results"
	"sp2bench/internal/store"
)

var (
	doc10kOnce sync.Once
	doc10k     []byte
	doc10kErr  error
)

// document10k returns a 10k-triple generated document (default seed),
// generated once for the package's tests.
func document10k(t *testing.T) []byte {
	t.Helper()
	if testing.Short() {
		t.Skip("generates a 10k document")
	}
	doc10kOnce.Do(func() {
		var buf bytes.Buffer
		g, err := gen.New(gen.DefaultParams(10_000), &buf)
		if err == nil {
			_, err = g.Generate()
		}
		doc10k, doc10kErr = buf.Bytes(), err
	})
	if doc10kErr != nil {
		t.Fatal(doc10kErr)
	}
	return doc10k
}

func loadStore(t *testing.T, doc []byte) *store.Store {
	t.Helper()
	st := store.New()
	if _, err := st.Load(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	st.Freeze()
	return st
}

// liveStore returns an MVCC store over doc whose last fifth of
// statements sits in the delta, so snapshot reads merge base and delta.
func liveStore(t *testing.T, doc []byte) *mvcc.Store {
	t.Helper()
	lines := bytes.SplitAfter(doc, []byte("\n"))
	cut := len(lines) * 4 / 5
	live := mvcc.New(loadStore(t, bytes.Join(lines[:cut], nil)), mvcc.MergePolicy{Disabled: true})
	t.Cleanup(live.Close)
	delta, err := rdf.NewReader(bytes.NewReader(bytes.Join(lines[cut:], nil))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if live.Apply(delta) == 0 {
		t.Fatal("empty delta")
	}
	return live
}

var acceptOf = map[results.Format]string{
	results.JSON: "application/sparql-results+json",
	results.XML:  "application/sparql-results+xml",
	results.TSV:  "text/tab-separated-values",
	results.CSV:  "text/csv",
}

func get(t *testing.T, client *http.Client, base, query, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"?query="+url.QueryEscape(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestStreamedEqualsMaterialized serves all 17 queries at 10k in the
// four standard formats and compares each body byte for byte with the
// materialized result written by the same writer: over an immutable
// engine, over a live snapshot whose reads merge base and delta, and
// with 7-row batches so that batch boundaries fall inside responses.
func TestStreamedEqualsMaterialized(t *testing.T) {
	doc := document10k(t)
	tiny := engine.Native()
	tiny.BatchSize = 7
	live := liveStore(t, doc)
	configs := []struct {
		name string
		cfg  Config
		eng  func() (*engine.Engine, func())
	}{
		{"immutable", Config{Engine: engine.New(loadStore(t, doc), engine.Native())}, nil},
		{"live", Config{Live: live, Opts: engine.Native()}, func() (*engine.Engine, func()) {
			sn := live.Snapshot()
			return engine.NewReader(sn, engine.Native()), sn.Close
		}},
		{"batch7", Config{Engine: engine.New(loadStore(t, doc), tiny)}, nil},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			ts := newTestServer(t, c.cfg)
			for _, q := range queries.All() {
				eng, done := c.cfg.Engine, func() {}
				if c.eng != nil {
					eng, done = c.eng()
				}
				res, err := eng.Query(context.Background(), q.Parse())
				done()
				if err != nil {
					t.Fatalf("%s: %v", q.ID, err)
				}
				for _, f := range []results.Format{results.JSON, results.XML, results.TSV, results.CSV} {
					var want bytes.Buffer
					if err := results.FromEngine(res).Write(&want, f); err != nil {
						t.Fatal(err)
					}
					resp := get(t, http.DefaultClient, ts.URL, q.Text, acceptOf[f])
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("%s as %s: status %d, %v", q.ID, f, resp.StatusCode, err)
					}
					if !bytes.Equal(got, want.Bytes()) {
						t.Errorf("%s as %s: served %d bytes differ from the materialized %d",
							q.ID, f, len(got), want.Len())
					}
				}
			}
		})
	}
}

// cancelReader cancels the request it serves from every index range it
// opens and every term it resolves once armed, as a deadline expiring
// mid-query would: the cursor's next context check ends it with
// engine.ErrCancelled. Requests must run one at a time through serve.
type cancelReader struct {
	store.Reader
	armed  atomic.Bool
	cancel atomic.Pointer[context.CancelFunc]
}

// serve runs each request of h under a context the reader cancels.
func (r *cancelReader) serve(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx, cancel := context.WithCancel(req.Context())
		defer cancel()
		r.cancel.Store(&cancel)
		h.ServeHTTP(w, req.WithContext(ctx))
	})
}

func (r *cancelReader) hit() {
	if r.armed.Load() {
		(*r.cancel.Load())()
	}
}

func (r *cancelReader) RangeIn(ord store.Order, s, p, o store.ID) store.IndexRange {
	r.hit()
	return r.Reader.RangeIn(ord, s, p, o)
}

func (r *cancelReader) TermDict() store.TermSource { return cancelDict{r.Reader.TermDict(), r} }

type cancelDict struct {
	store.TermSource
	r *cancelReader
}

func (d cancelDict) Term(id store.ID) rdf.Term {
	d.r.hit()
	return d.TermSource.Term(id)
}

// throttledServer serves h with a small kernel send buffer per
// connection and returns a client with a small receive buffer, so a
// large response stays ahead of its reader by tens of kilobytes
// rather than megabytes: the server is still producing when the client
// acts on the first chunk.
func throttledServer(t *testing.T, h http.Handler) (*httptest.Server, *http.Client) {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if tc, ok := c.(*net.TCPConn); ok && s == http.StateNew {
			tc.SetWriteBuffer(8 << 10)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetReadBuffer(8 << 10)
		}
		return c, err
	}}
	t.Cleanup(tr.CloseIdleConnections)
	return ts, &http.Client{Transport: tr}
}

// logLines collects a server's request log lines.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// wait returns the first n log lines, waiting for the handler to log.
func (l *logLines) wait(t *testing.T, n int) []string {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		l.mu.Lock()
		got := append([]string(nil), l.lines...)
		l.mu.Unlock()
		if len(got) >= n {
			return got
		}
	}
	t.Fatalf("no request log line after 10s")
	return nil
}

func q4Text(t *testing.T) string {
	q, ok := queries.ByID("q4")
	if !ok {
		t.Fatal("no q4")
	}
	return q.Text
}

// TestStreamFaultBeforeFirstByte: a failure before the writer's first
// flush still answers its status, with nothing of the document sent.
func TestStreamFaultBeforeFirstByte(t *testing.T) {
	src := &cancelReader{Reader: loadStore(t, document10k(t))}
	src.armed.Store(true)
	s, err := New(Config{Engine: engine.NewReader(src, engine.Native())})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(src.serve(s))
	t.Cleanup(ts.Close)
	resp := get(t, http.DefaultClient, ts.URL, q4Text(t), "application/sparql-results+json")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "cancelled") || strings.Contains(string(body), "bindings") {
		t.Fatalf("body = %.200q, want the cancellation and no document", body)
	}
}

// TestStreamFaultAfterFirstByte: once part of a 200 response has left,
// a failure aborts it: the client's body read ends in
// io.ErrUnexpectedEOF, never in a complete-looking document, and the
// request is logged and counted as aborted.
func TestStreamFaultAfterFirstByte(t *testing.T) {
	src := &cancelReader{Reader: loadStore(t, document10k(t))}
	var log logLines
	s, err := New(Config{Engine: engine.NewReader(src, engine.Native()), Logf: log.logf})
	if err != nil {
		t.Fatal(err)
	}
	ts, client := throttledServer(t, src.serve(s))
	aborted := reqAborted.With("503").Value()

	for _, f := range []results.Format{results.JSON, results.XML, results.TSV, results.CSV} {
		src.armed.Store(false)
		resp := get(t, client, ts.URL, q4Text(t), acceptOf[f])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", f, resp.StatusCode)
		}
		first := make([]byte, 1)
		if _, err := io.ReadFull(resp.Body, first); err != nil {
			t.Fatalf("%s: first byte: %v", f, err)
		}
		src.armed.Store(true)
		rest, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: body read ended in %v after %d bytes, want %v", f, err, 1+len(rest), io.ErrUnexpectedEOF)
		}
	}
	lines := log.wait(t, 4)
	for _, l := range lines {
		if !strings.Contains(l, " 200 ") || !strings.Contains(l, "aborted after") || !strings.Contains(l, "cancelled") {
			t.Errorf("log line %q does not record the abort and its cause", l)
		}
	}
	if got := reqAborted.With("503").Value() - aborted; got != 4 {
		t.Errorf("aborted-503 counter moved by %d, want 4", got)
	}
}

// rangeCounter counts the index ranges a query opens.
type rangeCounter struct {
	store.Reader
	n atomic.Int64
}

func (r *rangeCounter) RangeIn(ord store.Order, s, p, o store.ID) store.IndexRange {
	r.n.Add(1)
	return r.Reader.RangeIn(ord, s, p, o)
}

// TestNotAcceptableBeforeEvaluation: an Accept header no format
// satisfies answers 406 without opening a single index range, for
// SELECT and CONSTRUCT alike.
func TestNotAcceptableBeforeEvaluation(t *testing.T) {
	src := &rangeCounter{Reader: testEngine().Source()}
	ts := newTestServer(t, Config{Engine: engine.NewReader(src, engine.Native())})
	construct := `CONSTRUCT { ?x dc:title ?t } WHERE { ?x dc:title ?t }`
	for _, q := range []string{selectTitles, construct} {
		resp := get(t, http.DefaultClient, ts.URL, q, "image/png")
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotAcceptable {
			t.Errorf("%.20s…: status = %d, want 406", q, resp.StatusCode)
		}
	}
	if n := src.n.Load(); n != 0 {
		t.Fatalf("406 requests opened %d index ranges, want 0", n)
	}
	// The counter sees ranges when a request is served.
	resp := get(t, http.DefaultClient, ts.URL, selectTitles, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || src.n.Load() == 0 {
		t.Fatalf("served SELECT: status %d, %d ranges opened", resp.StatusCode, src.n.Load())
	}
}

// TestDisconnectCancelsQuery reads the first chunk of Q4 from a live
// deployment and hangs up: the query must stop early, its snapshot pin
// must be released, and (TestMain) no goroutine may outlive it.
func TestDisconnectCancelsQuery(t *testing.T) {
	live := liveStore(t, document10k(t))
	var log logLines
	s, err := New(Config{Live: live, Opts: engine.Native(), Logf: log.logf})
	if err != nil {
		t.Fatal(err)
	}
	ts, client := throttledServer(t, s)
	resp := get(t, client, ts.URL, q4Text(t), "application/sparql-results+xml")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // unread body: the transport closes the connection

	line := log.wait(t, 1)[0]
	if strings.Contains(line, "solutions") {
		t.Errorf("request ran to completion after the disconnect: %q", line)
	}
	stats := LiveStatsHandler(live)
	var doc statsDoc
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		rec := httptest.NewRecorder()
		stats.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if doc.ActiveSnapshots == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("active_snapshots = %d 10s after the disconnect, want 0", doc.ActiveSnapshots)
		}
	}
}

// TestTimeoutBoundsStreamedWrite: a client that stops reading mid-body
// does not hold the request past Config.Timeout; the handler gives up
// on the write and returns while the client still stalls.
func TestTimeoutBoundsStreamedWrite(t *testing.T) {
	var log logLines
	s, err := New(Config{Engine: engine.New(loadStore(t, document10k(t)), engine.Native()),
		Timeout: 300 * time.Millisecond, Logf: log.logf})
	if err != nil {
		t.Fatal(err)
	}
	ts, client := throttledServer(t, s)
	resp := get(t, client, ts.URL, q4Text(t), "application/sparql-results+xml")
	defer resp.Body.Close()
	if _, err := io.ReadFull(resp.Body, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	// Stall: the request must end on its own, without completing.
	if line := log.wait(t, 1)[0]; strings.Contains(line, "solutions") {
		t.Errorf("stalled request logged %q, want a write failure or an abort", line)
	}
}

// TestFailureStatus pins the evaluation-failure mapping both the
// streamed and the materialized paths answer with.
func TestFailureStatus(t *testing.T) {
	live := context.Background()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		ctx  context.Context
		err  error
		want int
	}{
		{live, fmt.Errorf("%w: deadline", engine.ErrCancelled), http.StatusServiceUnavailable},
		{expired, errors.New("anything, after the deadline"), http.StatusServiceUnavailable},
		{live, errors.New("refused"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got, _ := failure(c.ctx, c.err); got != c.want {
			t.Errorf("failure(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
