// Package workload is the scenario engine of the benchmark: it drives a
// backend — an in-process store/engine pair or any SPARQL endpoint —
// under a named, weighted query mix for a fixed duration and reports
// throughput, latency percentiles and a per-bucket time series.
//
// Two traffic models are supported:
//
//   - Closed loop: N clients, each issuing its next operation as soon as
//     the previous one returns. Throughput adapts to the backend's speed
//     — the model of the paper's concurrent driver, and of connection
//     pools with a fixed size.
//   - Open loop: operations arrive on a Poisson process at a configured
//     rate (QPS), independent of how fast the backend answers — the
//     model of public traffic, where users do not wait for each other.
//     Latency is measured from the scheduled arrival, so queueing delay
//     under overload is part of the number (no coordinated omission).
//
// Mixes come from internal/queries; the mixed-update mix adds an update
// stream of yearly DBLP insert batches (gen.UpdateStream), exercising
// the MVCC store's commits and background merges under concurrent
// reads.
package workload
