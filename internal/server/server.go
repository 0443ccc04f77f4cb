// Package server implements the query operation of the SPARQL 1.1
// Protocol (https://www.w3.org/TR/sparql11-protocol/) over an in-process
// engine: GET with a query parameter, POST with form-encoded parameters,
// and POST with an application/sparql-query body, with content
// negotiation across the internal/results formats. It is the subsystem
// that turns the benchmark's engines into a networked SPARQL endpoint
// any protocol-speaking client (including this repo's own harness) can
// drive.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/rdf"
	"sp2bench/internal/results"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// maxQueryBytes bounds request bodies; benchmark queries are under a
// kilobyte, so a megabyte leaves two orders of magnitude of headroom
// while keeping hostile payloads out of memory.
const maxQueryBytes = 1 << 20

// Config tunes one protocol endpoint. Exactly one of Engine and Live
// must be set: Engine serves an immutable store with one shared engine;
// Live serves a mutable MVCC deployment by pinning a snapshot per
// request — queries run against a consistent dataset version without
// ever blocking on the update handler.
type Config struct {
	// Engine evaluates the queries of an immutable deployment. Engines
	// are stateless after construction, so one instance serves all
	// requests.
	Engine *engine.Engine
	// Live is the multi-version store of a mutable deployment. Each
	// request takes a snapshot and evaluates on a per-request engine
	// built with Opts.
	Live *mvcc.Store
	// Opts configures the per-request engines of a Live deployment;
	// ignored when Engine is set.
	Opts engine.Options
	// Timeout is the per-request evaluation limit (0 = none). A SELECT
	// streams its rows while they are evaluated, so the limit bounds the
	// streamed write as well. A request exceeding it before any result
	// bytes have been sent answers 503; one exceeding it mid-stream is
	// aborted, and its client sees a truncated body.
	Timeout time.Duration
	// MaxConcurrent caps in-flight evaluations (0 = unlimited). Excess
	// requests queue until a slot frees or their context ends.
	MaxConcurrent int
	// Logf, when non-nil, receives one line per completed request.
	Logf func(format string, args ...any)
	// Logger, when non-nil, additionally receives one structured record
	// per completed request: route, status, duration, query fingerprint
	// and the snapshot generation served (mutable deployments).
	Logger *slog.Logger
}

// Server is the http.Handler implementing the protocol's query
// operation.
type Server struct {
	cfg Config
	sem chan struct{}
}

// statsDoc is the /stats JSON document: the store footprint plus the
// generational breakdown (zero generation for immutable deployments).
type statsDoc struct {
	Triples         int    `json:"triples"`
	Terms           int    `json:"terms"`
	IndexBytes      int64  `json:"index_bytes"`
	TermBytes       int64  `json:"term_bytes"`
	Generation      uint64 `json:"generation"`
	BaseTriples     int    `json:"base_triples"`
	DeltaTriples    int    `json:"delta_triples"`
	DeltaBytes      int64  `json:"delta_bytes"`
	ActiveSnapshots int64  `json:"active_snapshots"`
	Merges          uint64 `json:"merges"`
}

func statsFromFootprint(f store.Footprint) statsDoc {
	return statsDoc{
		Triples:      f.Triples,
		Terms:        f.Terms,
		IndexBytes:   f.IndexBytes,
		TermBytes:    f.TermBytes,
		Generation:   f.Generation,
		BaseTriples:  f.BaseTriples,
		DeltaTriples: f.DeltaTriples,
		DeltaBytes:   f.DeltaBytes,
	}
}

// StatsHandler serves a small JSON document describing a store's
// footprint (triples, dictionary terms, approximate index and term
// bytes) — the observability endpoint sp2bserve mounts at /stats so
// deployments can see what a process holds without grepping its logs.
func StatsHandler(st *store.Store) http.Handler {
	// The store is immutable once served, and Footprint walks the whole
	// dictionary — compute the document once, not per request.
	f := st.Footprint()
	doc := statsFromFootprint(f)
	doc.BaseTriples = f.Triples
	body, err := json.Marshal(doc)
	if err != nil { // static struct of integers; cannot happen
		panic(err)
	}
	body = append(body, '\n')
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
}

// New validates the configuration and returns the handler.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil && cfg.Live == nil {
		return nil, fmt.Errorf("server: no engine configured")
	}
	if cfg.Engine != nil && cfg.Live != nil {
		return nil, fmt.Errorf("server: both Engine and Live configured; want exactly one")
	}
	s := &Server{cfg: cfg}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// reqMeta carries per-request observability facts from serve back to
// ServeHTTP's logging and metrics.
type reqMeta struct {
	fingerprint string
	generation  uint64
	// abortStatus is the status a failure mid-stream would have answered
	// had the response not started; non-zero means ServeHTTP aborts the
	// response after logging it.
	abortStatus int
}

// ServeHTTP handles one protocol query request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	meta := &reqMeta{}
	status, detail := s.serve(w, r, meta)
	dur := time.Since(start)

	route := r.URL.Path
	reqTotal.With(route, strconv.Itoa(status)).Inc()
	reqLatency.With(route).Observe(dur.Seconds())
	if status >= 400 {
		reqFaults.With(strconv.Itoa(status)).Inc()
	}
	if meta.abortStatus != 0 {
		reqAborted.With(strconv.Itoa(meta.abortStatus)).Inc()
	}
	s.logf("%s %s %d %v %s", r.Method, route, status, dur.Round(time.Microsecond), detail)
	if s.cfg.Logger != nil {
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", status),
			slog.Duration("duration", dur),
			slog.String("query", meta.fingerprint),
			slog.Uint64("generation", meta.generation),
			slog.String("detail", detail),
		)
	}
	if meta.abortStatus != 0 {
		// Part of a 200 response has left: net/http's documented abort
		// leaves the client a truncated chunked body, never a
		// complete-looking document missing rows.
		panic(http.ErrAbortHandler)
	}
}

// serve runs the request and returns (status, log detail). Error
// statuses are written by httpError; success statuses by the result
// writer.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, meta *reqMeta) (int, string) {
	text, status, err := queryText(r)
	if err != nil {
		return httpError(w, status, err)
	}
	meta.fingerprint = fingerprint(text)

	// The concurrency limiter queues rather than rejects: a benchmark
	// driving more clients than the cap should see latency, not errors.
	// A request whose context ends while queued answers 503.
	if s.sem != nil {
		reqQueued.Inc()
		select {
		case s.sem <- struct{}{}:
			reqQueued.Dec()
			defer func() { <-s.sem }()
		case <-r.Context().Done():
			reqQueued.Dec()
			return httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server at capacity"))
		}
	}
	reqInflight.Inc()
	defer reqInflight.Dec()

	q, err := sparql.Parse(text, rdf.Prefixes)
	if err != nil {
		// The protocol's MalformedQuery fault.
		return httpError(w, http.StatusBadRequest, err)
	}

	// Negotiate before evaluating: an unacceptable Accept header costs
	// no evaluation. An ?analyze=1 request answers JSON whatever it
	// accepts.
	analyze := r.URL.Query().Get("analyze") != ""
	accept := r.Header.Get("Accept")
	graphForm := q.Form == sparql.FormConstruct || q.Form == sparql.FormDescribe
	format := results.JSON
	switch {
	case analyze:
	case graphForm:
		if !graphAcceptable(accept) {
			return httpError(w, http.StatusNotAcceptable,
				fmt.Errorf("CONSTRUCT/DESCRIBE results are only available as %s", results.NTriplesContentType))
		}
	default:
		var ok bool
		if format, ok = negotiate(accept); !ok {
			return httpError(w, http.StatusNotAcceptable,
				fmt.Errorf("no supported result format in Accept %q (supported: %s)",
					accept, strings.Join(SupportedSelectTypes(), ", ")))
		}
	}

	ctx := r.Context()
	if s.cfg.Timeout != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	if ctx.Err() != nil {
		return httpError(w, http.StatusServiceUnavailable, fmt.Errorf("query timed out"))
	}

	// Mutable deployments pin one dataset version for the whole request:
	// concurrent inserts land in later versions and are simply not
	// visible, so a query never sees half of a batch and never waits.
	eng := s.cfg.Engine
	if s.cfg.Live != nil {
		sn := s.cfg.Live.Snapshot()
		defer sn.Close()
		meta.generation = sn.Generation()
		eng = engine.NewReader(sn, s.cfg.Opts)
	}

	if !analyze && q.Form == sparql.FormSelect && !q.IsAggregate() {
		return streamSelect(ctx, w, eng, q, format, meta)
	}

	// EXPLAIN ANALYZE: ?analyze=1 runs the query under a trace collector
	// and answers with a JSON trace block instead of the result set.
	var th *engine.TraceHandle
	ectx := ctx
	if analyze {
		ectx, th = engine.WithAnalyze(ctx)
	}
	res, graph, err := eng.Eval(ectx, q)
	if err != nil {
		return evalError(ctx, w, err)
	}

	if analyze {
		rows := len(graph)
		if res != nil {
			rows = res.Len()
		}
		return writeAnalyze(w, rows, th.Trace())
	}

	if graphForm {
		w.Header().Set("Content-Type", results.NTriplesContentType)
		if err := results.WriteGraph(w, graph); err != nil {
			return http.StatusOK, "write: " + err.Error()
		}
		return http.StatusOK, fmt.Sprintf("%s %d triples", q.Form, len(graph))
	}
	w.Header().Set("Content-Type", format.ContentType())
	out := results.FromEngine(res)
	if err := out.Write(w, format); err != nil {
		// Headers are gone; all we can do is log the broken pipe.
		return http.StatusOK, "write: " + err.Error()
	}
	return http.StatusOK, fmt.Sprintf("%s %d solutions as %s", q.Form, out.Len(), format)
}

// streamSelect serves a plain SELECT: the rows of the engine's cursor
// go through the format's writer to the client as they are produced,
// and no solution table is built. Until the writer's first flush
// nothing has been sent, so a failure still answers its status; after
// it, a failure sets meta.abortStatus and ServeHTTP aborts the
// response.
func streamSelect(ctx context.Context, w http.ResponseWriter, eng *engine.Engine, q *sparql.Query, format results.Format, meta *reqMeta) (int, string) {
	rows, err := eng.Select(ctx, q)
	if err != nil {
		return evalError(ctx, w, err)
	}
	defer rows.Close()
	// The deadline covers writing to a client that reads slowly, which
	// the engine's context checks alone would not interrupt.
	if deadline, ok := ctx.Deadline(); ok {
		rc := http.NewResponseController(w)
		if rc.SetWriteDeadline(deadline) == nil {
			defer rc.SetWriteDeadline(time.Time{})
		}
	}
	w.Header().Set("Content-Type", format.ContentType())
	body := &bodyWriter{w: w}
	err = results.Stream(rows.Vars, rows).Write(body, format)
	switch {
	case err == nil:
		return http.StatusOK, fmt.Sprintf("%s %d solutions as %s", q.Form, rows.Len(), format)
	case body.err != nil:
		// The client went away; the headers are gone.
		return http.StatusOK, "write: " + err.Error()
	case body.n == 0:
		return evalError(ctx, w, err)
	default:
		status, cause := failure(ctx, err)
		meta.abortStatus = status
		return http.StatusOK, fmt.Sprintf("aborted after %d bytes (%d): %v", body.n, status, cause)
	}
}

// bodyWriter counts the response bytes handed to net/http and keeps the
// first write error, telling a failed evaluation from a gone client.
type bodyWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (b *bodyWriter) Write(p []byte) (int, error) {
	n, err := b.w.Write(p)
	b.n += int64(n)
	if err != nil && b.err == nil {
		b.err = err
	}
	return n, err
}

// evalError answers a failed evaluation with its protocol status.
func evalError(ctx context.Context, w http.ResponseWriter, err error) (int, string) {
	status, err := failure(ctx, err)
	return httpError(w, status, err)
}

// failure maps an evaluation error to its protocol status.
func failure(ctx context.Context, err error) (int, error) {
	switch {
	case errors.Is(err, engine.ErrCancelled) || ctx.Err() != nil:
		return http.StatusServiceUnavailable, fmt.Errorf("query timed out: %w", err)
	default:
		// The protocol's QueryRequestRefused fault: the query was
		// well-formed but evaluation failed.
		return http.StatusInternalServerError, err
	}
}

// writeAnalyze answers an ?analyze=1 request: a JSON document with the
// solution count, wall time, est-vs-actual cardinality error and the
// full operator trace.
func writeAnalyze(w http.ResponseWriter, rows int, tr *engine.Trace) (int, string) {
	doc := struct {
		Rows         int           `json:"rows"`
		WallNS       int64         `json:"wall_ns"`
		MaxCardError float64       `json:"max_cardinality_error,omitempty"`
		GeoCardError float64       `json:"geomean_cardinality_error,omitempty"`
		Trace        *engine.Trace `json:"trace"`
	}{Rows: rows, Trace: tr}
	if tr != nil {
		doc.WallNS = tr.WallNS
		doc.MaxCardError, doc.GeoCardError = tr.CardinalityError()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return http.StatusOK, "write: " + err.Error()
	}
	return http.StatusOK, fmt.Sprintf("analyze %d solutions", rows)
}

// queryText extracts the query string per the three protocol bindings.
func queryText(r *http.Request) (string, int, error) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", http.StatusBadRequest, fmt.Errorf("missing query parameter")
		}
		return q, 0, nil
	case http.MethodPost:
		ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
		if err != nil && r.Header.Get("Content-Type") != "" {
			return "", http.StatusUnsupportedMediaType, fmt.Errorf("bad Content-Type: %v", err)
		}
		switch ct {
		case "application/sparql-query":
			body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBytes+1))
			if err != nil {
				return "", http.StatusBadRequest, fmt.Errorf("reading body: %v", err)
			}
			if len(body) > maxQueryBytes {
				return "", http.StatusRequestEntityTooLarge, fmt.Errorf("query exceeds %d bytes", maxQueryBytes)
			}
			if len(body) == 0 {
				return "", http.StatusBadRequest, fmt.Errorf("empty query body")
			}
			return string(body), 0, nil
		case "application/x-www-form-urlencoded", "":
			r.Body = http.MaxBytesReader(nil, r.Body, maxQueryBytes)
			if err := r.ParseForm(); err != nil {
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					return "", http.StatusRequestEntityTooLarge, fmt.Errorf("form body exceeds %d bytes", maxQueryBytes)
				}
				return "", http.StatusBadRequest, fmt.Errorf("parsing form body: %v", err)
			}
			q := r.PostFormValue("query")
			if q == "" {
				return "", http.StatusBadRequest, fmt.Errorf("missing query form parameter")
			}
			return q, 0, nil
		default:
			return "", http.StatusUnsupportedMediaType,
				fmt.Errorf("unsupported Content-Type %q (want application/sparql-query or form encoding)", ct)
		}
	default:
		return "", http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed (want GET or POST)", r.Method)
	}
}

func httpError(w http.ResponseWriter, status int, err error) (int, string) {
	if status == http.StatusMethodNotAllowed {
		w.Header().Set("Allow", "GET, POST")
	}
	http.Error(w, err.Error(), status)
	return status, err.Error()
}

// selectTypes maps the media types the endpoint can produce for
// SELECT/ASK results to their formats, including the generic types
// clients commonly send.
var selectTypes = map[string]results.Format{
	"application/sparql-results+json": results.JSON,
	"application/json":                results.JSON,
	"application/sparql-results+xml":  results.XML,
	"application/xml":                 results.XML,
	"text/csv":                        results.CSV,
	"text/tab-separated-values":       results.TSV,
	"text/plain":                      results.Table,
}

// negotiate picks the SELECT/ASK result format for an Accept header:
// the supported media type with the highest quality value, ties broken
// by order of appearance, JSON for empty or fully wildcarded headers.
// ok is false when the header names only unsupported types.
func negotiate(accept string) (results.Format, bool) {
	accept = strings.TrimSpace(accept)
	if accept == "" {
		return results.JSON, true
	}
	type choice struct {
		format results.Format
		q      float64
	}
	var best *choice
	sawRange := false
	for _, part := range strings.Split(accept, ",") {
		mediaType, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		q, okq := quality(params)
		if !okq {
			continue
		}
		sawRange = true
		if q == 0 {
			continue
		}
		var format results.Format
		switch mediaType {
		case "*/*", "application/*":
			format = results.JSON
		case "text/*":
			// CSV is the standard text format (table is a convenience).
			format = results.CSV
		default:
			f, okf := selectTypes[mediaType]
			if !okf {
				continue
			}
			format = f
		}
		if best == nil || q > best.q {
			best = &choice{format: format, q: q}
		}
	}
	if best == nil {
		// A present but entirely unparseable header is treated as
		// absent; a parseable header naming only unsupported types is a
		// negotiation failure.
		return results.JSON, !sawRange
	}
	return best.format, true
}

// quality returns a media range's q parameter, 1 when absent. ok is
// false when the value breaks RFC 9110's qvalue grammar,
// "0" [ "." 0*3DIGIT ] or "1" [ "." 0*3("0") ]; callers skip such a
// range as if it did not parse.
func quality(params map[string]string) (q float64, ok bool) {
	s, present := params["q"]
	if !present {
		return 1, true
	}
	if len(s) == 0 || len(s) > 5 || (s[0] != '0' && s[0] != '1') {
		return 0, false
	}
	if len(s) > 1 {
		if s[1] != '.' {
			return 0, false
		}
		for i := 2; i < len(s); i++ {
			if s[i] < '0' || s[i] > '9' || (s[0] == '1' && s[i] != '0') {
				return 0, false
			}
		}
	}
	q, err := strconv.ParseFloat(s, 64)
	return q, err == nil
}

// graphAcceptable reports whether an Accept header admits N-Triples
// (the only graph serialization served). Like negotiate, a header with
// no parseable media range at all is treated as absent.
func graphAcceptable(accept string) bool {
	accept = strings.TrimSpace(accept)
	if accept == "" {
		return true
	}
	sawRange := false
	for _, part := range strings.Split(accept, ",") {
		mediaType, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		q, okq := quality(params)
		if !okq {
			continue
		}
		sawRange = true
		if q == 0 {
			continue
		}
		switch mediaType {
		case "application/n-triples", "text/plain", "*/*", "application/*", "text/*":
			return true
		}
	}
	return !sawRange
}

// SupportedSelectTypes returns the media types negotiable for
// SELECT/ASK results, sorted — the 406 diagnostic lists them.
func SupportedSelectTypes() []string {
	out := make([]string, 0, len(selectTypes))
	for t := range selectTypes {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
