// Package dist is the distributed sweep fabric: a coordinator that shards a
// sweep's replication range into contiguous chunks and fans them out over a
// fleet of plain blackdp-serve workers. Each chunk is an ordinary range
// sweep job ({"kind":"sweep","start":S,"reps":N} over the canonical
// config) submitted through serve/client, so the workers' result cache,
// admission, 429/503 envelopes, drain, health and metrics are the serve
// layer's own. Replication seeds are a pure function of the global index
// (scenario.RunSweepRange), which makes a chunk's outcomes byte-identical
// to the same replications of a single-node sweep.
//
// The coordinator keeps the fleet invisible in the results: chunks merge in
// replication order, a failed chunk is retried with backoff and reassigned
// when its worker died, a cross-job chunk cache lets overlapping sweeps
// share prefixes, and cancelling a sweep aborts its chunk submissions and
// DELETEs the worker jobs behind them (worker jobs, like every serve job,
// run detached from the connection). The differential suite in this
// package holds distributed output byte-identical to single-node output
// across seeds, fleet sizes and a worker killed mid-sweep.
package dist
