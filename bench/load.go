package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout is the client's limit on one operation, and what a failed
// operation is charged in every latency statistic (the paper's penalty
// for a query that does not succeed).
const opTimeout = 30 * time.Second

// warmCycles is the least number of full cycles every client discards
// before measuring: the first big responses run 2× slow while the
// server's heap grows.
const warmCycles = 3

// sample is one measured operation.
type sample struct {
	latency, ttfb time.Duration
	failed        bool
}

// loadConfig describes one closed-loop run against a server.
type loadConfig struct {
	base      string // server URL
	templates []template
	order     []int            // the cycle: a permutation of template indexes
	clients   int              // closed-loop clients, one connection each
	expected  map[string]int64 // query → rows; nil skips the count check
	batches   [][]byte         // insert stream; a run that exhausts it fails
	warm      time.Duration    // least warm-up per client, in whole cycles
	window    time.Duration    // least measured time per client, in whole cycles
	alive     func() bool      // false once the server process has ended
}

// templateStats is what the load generator saw of one template.
type templateStats struct {
	samples     []sample
	rows, bytes int64 // of the last successful response
}

// loadResult aggregates the clients' measured windows.
type loadResult struct {
	perTemplate []templateStats // indexed like loadConfig.templates
	opsPerS     float64         // Σ over clients of successes ÷ that client's window
	attempted   int
	failed      int
	failures    []string // the first few failure messages
	inserted    int64    // Σ "inserted" acknowledgements, warm-up included
}

// maxFailureNotes bounds how many failure messages a run keeps.
const maxFailureNotes = 5

// runLoad drives the server with cfg.clients closed-loop clients. Each
// client walks the cycle from its own offset, discards warm-up cycles,
// measures whole cycles until the window has passed, and then keeps the
// load on, unrecorded, until the last client has finished measuring, so
// no client measures against a half-idle server.
func runLoad(ctx context.Context, cfg loadConfig) *loadResult {
	transport := &http.Transport{
		MaxIdleConnsPerHost: cfg.clients,
		MaxConnsPerHost:     cfg.clients,
		DisableCompression:  true,
	}
	defer transport.CloseIdleConnections()
	shared := &loadShared{cfg: cfg, http: &http.Client{Transport: transport}}
	shared.measuring.Store(int64(cfg.clients))

	clients := make([]*client, cfg.clients)
	var wg sync.WaitGroup
	for i := range clients {
		c := &client{
			loadShared:  shared,
			pos:         startOffset(i, cfg.clients, len(cfg.order)),
			buf:         make([]byte, 64<<10),
			perTemplate: make([]templateStats, len(cfg.templates)),
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx)
		}()
	}
	wg.Wait()

	res := &loadResult{perTemplate: make([]templateStats, len(cfg.templates)), inserted: shared.inserted.Load()}
	for _, c := range clients {
		ok := 0
		for i, ts := range c.perTemplate {
			agg := &res.perTemplate[i]
			agg.samples = append(agg.samples, ts.samples...)
			if ts.rows != 0 || ts.bytes != 0 {
				agg.rows, agg.bytes = ts.rows, ts.bytes
			}
			for _, s := range ts.samples {
				res.attempted++
				if s.failed {
					res.failed++
				} else {
					ok++
				}
			}
		}
		if c.elapsed > 0 {
			res.opsPerS += float64(ok) / c.elapsed.Seconds()
		}
		for _, f := range c.failures {
			if len(res.failures) < maxFailureNotes {
				res.failures = append(res.failures, f)
			}
		}
	}
	return res
}

// loadShared is the state the clients of one run share.
type loadShared struct {
	cfg       loadConfig
	http      *http.Client
	nextBatch atomic.Int64 // index of the next unsent insert batch
	inserted  atomic.Int64
	measuring atomic.Int64 // clients that have not finished their window
}

// client is one closed-loop client; its fields are its goroutine's own
// until run returns.
type client struct {
	*loadShared
	pos         int // position in cfg.order of the next operation
	buf         []byte
	perTemplate []templateStats
	elapsed     time.Duration // length of the measured window
	failures    []string
}

func (c *client) run(ctx context.Context) {
	c.measure(ctx)
	c.measuring.Add(-1)
	for c.measuring.Load() > 0 && c.step(ctx, false) {
	}
}

// measure discards the warm-up cycles and records whole cycles until
// the window has passed.
func (c *client) measure(ctx context.Context) {
	start := time.Now()
	for cycles := 0; cycles < warmCycles || time.Since(start) < c.cfg.warm; cycles++ {
		if !c.cycle(ctx, false) {
			return
		}
	}
	t0 := time.Now()
	defer func() { c.elapsed = time.Since(t0) }()
	for time.Since(t0) < c.cfg.window && c.cycle(ctx, true) {
	}
}

// cycle runs one full cycle and reports whether the run goes on. When
// the server has died or the run was cancelled, the rest of a recorded
// cycle is charged as failures: a crash must not look like a short,
// clean run.
func (c *client) cycle(ctx context.Context, record bool) bool {
	for i := range c.cfg.order {
		if c.step(ctx, record) {
			continue
		}
		if record {
			for range c.cfg.order[i+1:] {
				t := c.cfg.order[c.pos]
				c.pos = (c.pos + 1) % len(c.cfg.order)
				c.fail(t, "server gone: operation not sent")
			}
		}
		return false
	}
	return true
}

// step runs the next operation of the cycle and reports whether the run
// goes on.
func (c *client) step(ctx context.Context, record bool) bool {
	t := c.cfg.order[c.pos]
	c.pos = (c.pos + 1) % len(c.cfg.order)
	res := c.do(ctx, c.cfg.templates[t])
	if record {
		if res.err != nil {
			c.fail(t, res.err.Error())
		} else {
			ts := &c.perTemplate[t]
			ts.samples = append(ts.samples, sample{latency: res.latency, ttfb: res.ttfb})
			ts.rows, ts.bytes = res.rows, res.bytes
		}
	} else if res.err != nil && ctx.Err() == nil {
		// A failure outside the window still means the run is broken.
		c.note(t, "outside the window: "+res.err.Error())
	}
	return ctx.Err() == nil && c.cfg.alive()
}

func (c *client) fail(t int, msg string) {
	ts := &c.perTemplate[t]
	ts.samples = append(ts.samples, sample{latency: opTimeout, ttfb: opTimeout, failed: true})
	c.note(t, msg)
}

// note keeps the first few failure messages.
func (c *client) note(t int, msg string) {
	if len(c.failures) < maxFailureNotes {
		c.failures = append(c.failures, c.cfg.templates[t].name+": "+msg)
	}
}

// opResult is the outcome of one operation.
type opResult struct {
	latency, ttfb time.Duration
	rows, bytes   int64
	err           error
}

// do sends one operation and reads the response to its last byte.
// Latency runs from just before the request is written to the last
// body byte read and discarded; ttfb stops at the first body byte.
func (c *client) do(ctx context.Context, t template) opResult {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()

	var req *http.Request
	var err error
	if t.isInsert() {
		n := int(c.nextBatch.Add(1)) - 1
		if n >= len(c.cfg.batches) {
			return opResult{err: fmt.Errorf("insert stream exhausted after %d batches", len(c.cfg.batches))}
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.base+"/update", bytes.NewReader(c.cfg.batches[n]))
		if err == nil {
			req.Header.Set("Content-Type", "application/n-triples")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.base+"/sparql", strings.NewReader(t.text))
		if err == nil {
			req.Header.Set("Content-Type", "application/sparql-query")
			req.Header.Set("Accept", acceptHeader[t.format])
		}
	}
	if err != nil {
		return opResult{err: err}
	}

	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return opResult{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200)) // best effort: the status is the error
		return opResult{err: fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))}
	}
	if t.isInsert() {
		return c.readAck(resp.Body, start)
	}

	counter, err := newRowCounter(t.format)
	if err != nil {
		return opResult{err: err}
	}
	var res opResult
	for {
		n, err := resp.Body.Read(c.buf)
		if n > 0 {
			if res.bytes == 0 {
				res.ttfb = time.Since(start)
			}
			res.bytes += int64(n)
			counter.feed(c.buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return opResult{err: fmt.Errorf("reading body after %d bytes: %w", res.bytes, err)}
		}
	}
	res.latency = time.Since(start)
	rows, complete := counter.finish()
	res.rows = rows
	if !complete {
		return opResult{err: fmt.Errorf("%s body of %d bytes does not end on the format's terminator", t.format, res.bytes)}
	}
	if want, ok := c.cfg.expected[t.query]; ok && rows != want {
		return opResult{err: fmt.Errorf("%d rows, want %d", rows, want)}
	}
	return res
}

// readAck reads the update operation's acknowledgement.
func (c *client) readAck(body io.Reader, start time.Time) opResult {
	raw, err := io.ReadAll(io.LimitReader(body, 1<<16))
	res := opResult{latency: time.Since(start), bytes: int64(len(raw))}
	res.ttfb = res.latency
	if err != nil {
		return opResult{err: fmt.Errorf("reading acknowledgement: %w", err)}
	}
	var ack struct {
		Inserted *int64 `json:"inserted"`
		Triples  *int64 `json:"triples"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil || ack.Inserted == nil || ack.Triples == nil {
		return opResult{err: fmt.Errorf("malformed acknowledgement %q", raw)}
	}
	c.inserted.Add(*ack.Inserted)
	res.rows = *ack.Inserted
	return res
}
