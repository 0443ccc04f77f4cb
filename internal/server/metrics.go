package server

import (
	"crypto/sha256"
	"encoding/hex"

	"sp2bench/internal/obs"
)

// Server metrics, registered in the process-wide registry sp2bserve
// exposes at /metrics. Handles are package-level so the per-request
// path pays only the child lookup (or nothing, for the cached ones).
var (
	reqTotal = obs.Default.CounterVec("sp2b_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	reqLatency = obs.Default.HistogramVec("sp2b_http_request_seconds",
		"HTTP request latency from arrival to response, by route.", nil, "route")
	reqInflight = obs.Default.Gauge("sp2b_http_inflight_requests",
		"Requests currently executing (past the concurrency limiter).")
	reqQueued = obs.Default.Gauge("sp2b_http_queue_depth",
		"Requests waiting for an execution slot.")
	reqFaults = obs.Default.CounterVec("sp2b_http_faults_total",
		"Protocol faults, by status code class (400 malformed, 500 refused, 503 busy/timeout).", "code")
	reqAborted = obs.Default.CounterVec("sp2b_http_aborted_total",
		"Responses aborted after their first bytes, by the status the failure would have answered (503 timeout, 500 refused).", "code")
)

// fingerprint derives the short stable identifier request logs carry
// for a query text: the first 8 hex digits of its SHA-256. Logs stay
// greppable by query shape without quoting multi-line SPARQL.
func fingerprint(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:4])
}
