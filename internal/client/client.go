// Package client implements a SPARQL 1.1 Protocol client: it submits
// queries to any endpoint speaking the protocol (this repo's own
// sp2bserve, or an external store like Fuseki or Virtuoso) and decodes
// the SPARQL JSON results format via internal/results. The benchmark
// harness builds its remote-endpoint executor on it, which is what makes
// the harness engine-agnostic in the sense the paper intends.
package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sp2bench/internal/results"
)

// maxErrorBody bounds how much of an error response is kept for the
// error message.
const maxErrorBody = 2048

// Client talks to one SPARQL endpoint. It is safe for concurrent use.
type Client struct {
	endpoint string
	hc       *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (custom
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the endpoint URL (e.g.
// "http://localhost:8080/sparql"). The default HTTP client has no
// overall timeout: per-query limits come from the caller's context, as
// the harness's per-query budget does.
func New(endpoint string, opts ...Option) *Client {
	c := &Client{
		endpoint: endpoint,
		hc: &http.Client{
			Transport: &http.Transport{
				// A shard coordinator keeps many connections to one
				// host; the default per-host idle cap of 2 would force
				// reconnects under exactly that load.
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Endpoint returns the endpoint URL the client targets.
func (c *Client) Endpoint() string { return c.endpoint }

// HTTPError is a non-success protocol response.
type HTTPError struct {
	StatusCode int
	Status     string
	Body       string
}

func (e *HTTPError) Error() string {
	body := strings.TrimSpace(e.Body)
	if body == "" {
		return fmt.Sprintf("sparql endpoint: %s", e.Status)
	}
	return fmt.Sprintf("sparql endpoint: %s: %s", e.Status, body)
}

// IsMalformed reports whether the endpoint classified the query itself
// as invalid (the protocol's MalformedQuery fault) rather than failing
// to evaluate it.
func (e *HTTPError) IsMalformed() bool { return e.StatusCode == http.StatusBadRequest }

// Query submits a SPARQL query via POST with an
// application/sparql-query body and decodes the JSON results. The
// context bounds the whole round trip.
func (c *Client) Query(ctx context.Context, query string) (*results.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint, strings.NewReader(query))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	req.Header.Set("Accept", "application/sparql-results+json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBody)) // keep the connection reusable
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return nil, &HTTPError{StatusCode: resp.StatusCode, Status: resp.Status, Body: string(body)}
	}
	return results.ParseJSON(resp.Body)
}

// Count submits a query and returns only its solution count (row count
// for SELECT, 0/1 for ASK) — the client-side equivalent of the
// engine's Count, and what the harness records.
func (c *Client) Count(ctx context.Context, query string) (int, error) {
	res, err := c.Query(ctx, query)
	if err != nil {
		return 0, err
	}
	return res.Len(), nil
}

// Ping checks the endpoint is reachable and speaks the protocol by
// running a trivial ASK.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.Query(ctx, "ASK { ?s ?p ?o }")
	return err
}
