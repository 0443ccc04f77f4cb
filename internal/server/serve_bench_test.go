package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/queries"
	"sp2bench/internal/server"
	"sp2bench/internal/store"
)

// discardResponse is a ResponseWriter that drops the body and records
// when the first body bytes were handed to it.
type discardResponse struct {
	header http.Header
	status int
	bytes  int64
	first  time.Time
}

func (d *discardResponse) Header() http.Header { return d.header }

func (d *discardResponse) WriteHeader(status int) { d.status = status }

func (d *discardResponse) Write(p []byte) (int, error) {
	if d.first.IsZero() {
		d.first = time.Now()
	}
	d.bytes += int64(len(p))
	return len(p), nil
}

// BenchmarkServeSelect serves Q4 over a 10k document in each standard
// result format through the protocol handler, into a ResponseWriter
// that discards the body. Besides ns/op, B/op and allocs/op it reports
// ttfb-ns, the time from the start of ServeHTTP to the first body
// Write, and resp-B, the response size. It uses only the package's
// exported API.
func BenchmarkServeSelect(b *testing.B) {
	var doc bytes.Buffer
	g, err := gen.New(gen.DefaultParams(10_000), &doc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		b.Fatal(err)
	}
	st := store.New()
	if _, err := st.Load(&doc); err != nil {
		b.Fatal(err)
	}
	s, err := server.New(server.Config{Engine: engine.New(st, engine.Native())})
	if err != nil {
		b.Fatal(err)
	}
	q4, _ := queries.ByID("q4")
	target := "/sparql?query=" + url.QueryEscape(q4.Text)
	for _, f := range []struct{ name, accept string }{
		{"json", "application/sparql-results+json"},
		{"xml", "application/sparql-results+xml"},
		{"tsv", "text/tab-separated-values"},
		{"csv", "text/csv"},
	} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			var ttfb time.Duration
			var size int64
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodGet, target, nil)
				req.Header.Set("Accept", f.accept)
				w := &discardResponse{header: http.Header{}}
				start := time.Now()
				s.ServeHTTP(w, req)
				if (w.status != 0 && w.status != http.StatusOK) || w.first.IsZero() {
					b.Fatalf("status %d, %d bytes", w.status, w.bytes)
				}
				ttfb += w.first.Sub(start)
				size = w.bytes
			}
			b.ReportMetric(float64(ttfb.Nanoseconds())/float64(b.N), "ttfb-ns")
			b.ReportMetric(float64(size), "resp-B")
		})
	}
}
