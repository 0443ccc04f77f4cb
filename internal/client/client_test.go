package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestQueryProtocolShape(t *testing.T) {
	var gotMethod, gotCT, gotAccept, gotBody string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotMethod = r.Method
		gotCT = r.Header.Get("Content-Type")
		gotAccept = r.Header.Get("Accept")
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
		w.Header().Set("Content-Type", "application/sparql-results+json")
		io.WriteString(w, `{"head":{"vars":["x"]},"results":{"bindings":[
			{"x":{"type":"uri","value":"http://example.org/a"}},
			{"x":{"type":"literal","value":"hi","xml:lang":"en"}}]}}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	res, err := c.Query(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if gotMethod != http.MethodPost || gotCT != "application/sparql-query" ||
		gotAccept != "application/sparql-results+json" {
		t.Fatalf("request shape: %s %s %s", gotMethod, gotCT, gotAccept)
	}
	if gotBody != "SELECT ?x WHERE { ?x ?p ?o }" {
		t.Fatalf("body = %q", gotBody)
	}
	if len(res.Rows) != 2 || res.Rows[1][0].Lang != "en" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	n, err := c.Count(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
	if err != nil || n != 2 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestHTTPErrorSurfacesBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "syntax error at offset 3", http.StatusBadRequest)
	}))
	defer ts.Close()

	_, err := New(ts.URL).Query(context.Background(), "bogus")
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want HTTPError", err)
	}
	if !he.IsMalformed() {
		t.Errorf("IsMalformed() = false for 400")
	}
	if he.Body == "" || he.StatusCode != http.StatusBadRequest {
		t.Errorf("HTTPError = %+v", he)
	}
}

func TestBadJSONIsError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "this is not json")
	}))
	defer ts.Close()
	if _, err := New(ts.URL).Query(context.Background(), "ASK {}"); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestContextCancellation(t *testing.T) {
	unblock := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-unblock:
		}
	}))
	defer ts.Close()
	defer close(unblock)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := New(ts.URL).Query(ctx, "ASK {}")
	if err == nil {
		t.Fatal("expected context error")
	}
	if ctx.Err() == nil {
		t.Fatal("context should have expired")
	}
}

func TestPing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"head":{},"boolean":true}`)
	}))
	defer ts.Close()
	if err := New(ts.URL).Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}
