package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
	"blackdp/internal/serve"
	"blackdp/serve/client"
)

// Config tunes a Coordinator.
type Config struct {
	// Workers is the fleet: base URLs ("http://host:port") of plain
	// blackdp-serve nodes. The set is fixed at construction; liveness
	// within it is dynamic.
	Workers []string
	// ChunkReps is how many replications one dispatched chunk carries
	// (default 8). Smaller chunks rebalance a ragged fleet better; larger
	// ones amortise dispatch overhead. The chunking is part of the chunk
	// cache key, so jobs only share cached sub-jobs when their coordinator
	// uses the same chunk size.
	ChunkReps int
	// Retries is a chunk's hard-failure budget — connection errors, worker
	// deaths mid-stream, failed executions — before the sweep fails
	// (default 3). Each hard failure marks the worker dead and reassigns
	// the chunk.
	Retries int
	// BackpressureRetries is a chunk's budget of 429/503 answers (default
	// 32). These honor the envelope's retry_after_seconds before the chunk
	// re-enters the queue and do not mark the worker dead (429) — the node
	// is healthy, just busy.
	BackpressureRetries int
	// HealthInterval paces the background health loop and a sweep's wait
	// for a dead fleet to revive (default 2s).
	HealthInterval time.Duration
	// FleetGrace is how long a sweep tolerates zero live workers before it
	// fails with ErrNoWorkers (default 30s).
	FleetGrace time.Duration
	// CacheEntries bounds the coordinator's chunk result cache (default
	// 512 completed chunks). The cache is shared across jobs: overlapping
	// sweeps of the same canonical config reuse each other's chunks.
	CacheEntries int
	// Client is the HTTP client for chunk dispatch (default: a fresh
	// client with no overall timeout — chunk streams run as long as the
	// replications do; cancellation comes from the sweep context).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.ChunkReps <= 0 {
		c.ChunkReps = 8
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.BackpressureRetries <= 0 {
		c.BackpressureRetries = 32
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.FleetGrace <= 0 {
		c.FleetGrace = 30 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// workerNode is the coordinator's view of one fleet member.
type workerNode struct {
	url   string
	alive atomic.Bool
}

// Coordinator shards sweeps into contiguous replication chunks and fans
// them out over the worker fleet, merging results in replication order so
// the output is byte-identical to a single-node run. It implements
// serve.Distributor. Construct with New, start the health loop with Start,
// stop it with Stop.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	cache   *serve.Cache
	workers []*workerNode

	stopOnce sync.Once
	stop     chan struct{}

	chunksDispatched atomic.Uint64
	chunksRetried    atomic.Uint64
	cacheShared      atomic.Uint64
	remoteReps       atomic.Uint64
}

// New builds a coordinator over cfg.Workers (zero fields take defaults).
// Workers start unknown-dead and go live on their first successful health
// probe — Start the health loop, or let the first SweepRange probe on demand.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		cache:  serve.NewCache(cfg.CacheEntries),
		stop:   make(chan struct{}),
	}
	for _, url := range cfg.Workers {
		c.workers = append(c.workers, &workerNode{url: url})
	}
	return c
}

// Start launches the background health loop: every HealthInterval each
// fleet member's /v1/healthz decides its liveness, so workers that died
// mid-sweep revive when their process comes back.
func (c *Coordinator) Start() {
	go func() {
		ticker := time.NewTicker(c.cfg.HealthInterval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthInterval)
				c.probeAll(ctx)
				cancel()
			}
		}
	}()
}

// Stop halts the health loop. It does not interrupt running sweeps.
func (c *Coordinator) Stop() { c.stopOnce.Do(func() { close(c.stop) }) }

// probeAll health-checks every worker concurrently and updates liveness.
func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerNode) {
			defer wg.Done()
			w.alive.Store(client.Probe(ctx, c.client, w.url))
		}(w)
	}
	wg.Wait()
}

// LiveWorkers reports how many fleet members currently pass health checks.
func (c *Coordinator) LiveWorkers() int {
	n := 0
	for _, w := range c.workers {
		if w.alive.Load() {
			n++
		}
	}
	return n
}

// Width is how many replications the fleet executes at once: one chunk per
// live worker. It implements serve.Distributor, whose runner sizes its
// journal segments from it so a segment never leaves workers idle.
func (c *Coordinator) Width() int { return c.LiveWorkers() * c.cfg.ChunkReps }

// RegisterMetrics exposes the fabric instruments on a serve registry (the
// server wires this up automatically when the coordinator is its
// Distributor).
func (c *Coordinator) RegisterMetrics(r *serve.Registry) {
	r.GaugeFunc("blackdp_dist_workers_known",
		"Fleet members configured on the coordinator.",
		func() float64 { return float64(len(c.workers)) })
	r.GaugeFunc("blackdp_dist_workers_live",
		"Fleet members currently passing health checks.",
		func() float64 { return float64(c.LiveWorkers()) })
	r.CounterFunc("blackdp_dist_chunks_dispatched_total",
		"Chunks dispatched to workers, including retries.",
		func() uint64 { return c.chunksDispatched.Load() })
	r.CounterFunc("blackdp_dist_chunks_retried_total",
		"Chunk dispatches that failed or were refused and re-entered the queue.",
		func() uint64 { return c.chunksRetried.Load() })
	r.CounterFunc("blackdp_dist_chunk_cache_shared_total",
		"Chunks answered from the coordinator's cross-job chunk cache.",
		func() uint64 { return c.cacheShared.Load() })
	r.CounterFunc("blackdp_dist_reps_remote_total",
		"Replications computed remotely across the fleet.",
		func() uint64 { return c.remoteReps.Load() })
}

// chunk is one contiguous slice of a sweep's replication range, with its
// retry budgets.
type chunk struct {
	start, count  int
	failures      int // hard failures (worker died, execution failed)
	backpressures int // 429/503 refusals
}

// sweepState is the shared bookkeeping of one SweepRange call. Replication
// indexes are GLOBAL (chunk starts, onRep, cache keys); base translates
// them into the local results slice.
type sweepState struct {
	mu        sync.Mutex
	seed      int64 // the swept config's seed
	base      int   // global index of results[0]
	results   []metrics.Outcome
	reported  []bool // per-rep onRep dedup across chunk retries and cache hits
	onRep     func(rep int, err error)
	remaining int
	done      chan struct{}
	failErr   error
	failStart int
}

// report forwards one replication's progress exactly once, no matter how
// many chunk attempts or cache replays observe it.
func (st *sweepState) report(rep int, errMsg string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	i := rep - st.base
	if i < 0 || i >= len(st.reported) || st.reported[i] {
		return
	}
	st.reported[i] = true
	if st.onRep != nil {
		var err error
		if errMsg != "" {
			err = fmt.Errorf("%s", errMsg)
		}
		st.onRep(rep, err)
	}
}

// finish merges a completed chunk's outcomes at its replication offset.
func (st *sweepState) finish(ck *chunk, outs []metrics.Outcome) {
	copy(st.results[ck.start-st.base:ck.start-st.base+ck.count], outs)
	for rep := ck.start; rep < ck.start+ck.count; rep++ {
		st.report(rep, "")
	}
	st.mu.Lock()
	st.remaining--
	last := st.remaining == 0
	st.mu.Unlock()
	if last {
		close(st.done)
	}
}

// fail records a fatal sweep error, keeping the lowest-start failing chunk
// (mirroring exp.Map's lowest-replication-failure rule so the reported
// error does not depend on dispatch order).
func (st *sweepState) fail(start int, err error) {
	st.mu.Lock()
	if st.failErr == nil || start < st.failStart {
		st.failStart, st.failErr = start, err
	}
	st.mu.Unlock()
}

// SweepRange executes count replications of cfg starting at GLOBAL
// replication index start, fanned out across the fleet, and returns the
// outcomes in replication order — byte-identical to the corresponding
// slice of scenario.RunSweep on one node, because replication seeds are a
// pure function of the global index. Chunk boundaries and cache keys use
// global indexes too, so a resumed durable job's tail range shares cached
// chunks with the full sweep that preceded it. onRep fires once per
// replication — serialised, not in replication order — as progress
// streams back, carrying the global index. If no fleet member is live
// (after an on-demand probe and FleetGrace of waiting) the error wraps
// serve.ErrNoWorkers, which tells the serve layer to fall back to local
// execution.
func (c *Coordinator) SweepRange(ctx context.Context, cfg scenario.Config, start, count int, onRep func(rep int, err error)) ([]metrics.Outcome, error) {
	if count <= 0 {
		return nil, nil
	}
	// Canonical bytes are the wire form: fully defaulted and normalised,
	// so coordinator-side and worker-side fingerprints agree exactly.
	canon, err := scenario.Canonical(cfg)
	if err != nil {
		return nil, err
	}
	fp, err := scenario.Fingerprint(cfg)
	if err != nil {
		return nil, err
	}
	if len(c.workers) == 0 {
		return nil, fmt.Errorf("dist: no workers configured: %w", serve.ErrNoWorkers)
	}
	if c.LiveWorkers() == 0 {
		probeCtx, cancel := context.WithTimeout(ctx, c.cfg.HealthInterval)
		c.probeAll(probeCtx)
		cancel()
		if c.LiveWorkers() == 0 {
			return nil, fmt.Errorf("dist: none of %d workers is live: %w", len(c.workers), serve.ErrNoWorkers)
		}
	}

	// Chunk boundaries align to global multiples of ChunkReps, not to the
	// range start, so a range resuming at an aligned index dispatches the
	// same chunks — and hits the same cache keys — as the full sweep that
	// preceded it. An unaligned head becomes one partial chunk with its
	// own key.
	size := c.cfg.ChunkReps
	end := start + count
	first := (start / size) * size
	nchunks := 0
	pending := make(chan *chunk, (end-first+size-1)/size)
	for cs := first; cs < end; cs += size {
		lo, hi := max(cs, start), min(cs+size, end)
		pending <- &chunk{start: lo, count: hi - lo}
		nchunks++
	}
	st := &sweepState{
		seed:      cfg.Seed,
		base:      start,
		results:   make([]metrics.Outcome, count),
		reported:  make([]bool, count),
		onRep:     onRep,
		remaining: nchunks,
		done:      make(chan struct{}),
		failStart: end + 1,
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One dispatcher per fleet member: each pulls chunks while its worker
	// is live and idles (waiting for the health loop to revive it) while
	// dead. A fleet that is entirely dead for FleetGrace fails the sweep.
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerNode) {
			defer wg.Done()
			var deadSince time.Time
			for {
				if !w.alive.Load() {
					if c.LiveWorkers() == 0 {
						if deadSince.IsZero() {
							deadSince = time.Now()
						} else if time.Since(deadSince) > c.cfg.FleetGrace {
							st.fail(start, fmt.Errorf("dist: fleet dead for %v mid-sweep: %w",
								c.cfg.FleetGrace, serve.ErrNoWorkers))
							cancel()
							return
						}
					} else {
						deadSince = time.Time{}
					}
					select {
					case <-sctx.Done():
						return
					case <-st.done:
						return
					case <-time.After(c.cfg.HealthInterval):
						continue
					}
				}
				deadSince = time.Time{}
				select {
				case <-sctx.Done():
					return
				case <-st.done:
					return
				case ck := <-pending:
					c.processChunk(sctx, w, canon, fp, ck, st, pending, cancel)
				}
			}
		}(w)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st.mu.Lock()
	failErr, remaining := st.failErr, st.remaining
	st.mu.Unlock()
	if failErr != nil {
		return nil, failErr
	}
	if remaining > 0 {
		return nil, fmt.Errorf("dist: sweep ended with %d chunks unfinished", remaining)
	}
	return st.results, nil
}

// processChunk drives one chunk attempt on one worker: cache first, then an
// ordinary range-sweep job on the worker, then the retry/reassign policy on
// failure. A failed attempt re-enqueues the chunk (another dispatcher — or
// this one, after backoff — picks it up); exhausted budgets fail the sweep.
func (c *Coordinator) processChunk(sctx context.Context, w *workerNode, canon []byte, fp string, ck *chunk, st *sweepState, pending chan *chunk, cancel context.CancelFunc) {
	key := fmt.Sprintf("chunk/%d+%d/%s", ck.start, ck.count, fp)

	// Cross-job chunk sharing: a chunk someone already computed — this
	// sweep's twin running concurrently, or an earlier overlapping sweep —
	// is merged from the cache instead of recomputed. A joiner whose
	// leader failed loops to lead the retry itself.
	var entry *serve.Entry
	for {
		var leader bool
		if entry, leader = c.cache.Begin(key); leader {
			break
		}
		// Payloads enter the cache only after decoding cleanly under the
		// same key, so a payload that fails here is a fault: fail the sweep.
		if payload, err := entry.Wait(sctx); err == nil {
			outs, err := decodeChunk(payload, st.seed, ck.start, ck.count)
			if err != nil {
				st.fail(ck.start, fmt.Errorf("dist: cached chunk [%d,%d): %w", ck.start, ck.start+ck.count, err))
				cancel()
				return
			}
			c.cacheShared.Add(1)
			st.finish(ck, outs)
			return
		}
		if sctx.Err() != nil {
			return
		}
		// The leader failed: loop to lead the retry.
	}

	// The coordinator's own backpressure and reassign policy stays in
	// charge, so the client surfaces every 429/503 instead of retrying.
	wc := &client.Client{BaseURL: w.url, HTTP: c.client, MaxRetries: -1}
	// The worker starts the job before its accepted line names it to us,
	// and the job runs detached from this connection. So a cancel holds
	// the submission open until that line arrives (for at most
	// HealthInterval), and the DELETE below always knows whom to cancel.
	subCtx, subCancel := context.WithCancel(context.WithoutCancel(sctx))
	defer subCancel()
	accepted := make(chan struct{})
	defer context.AfterFunc(sctx, func() {
		select {
		case <-accepted:
		case <-subCtx.Done():
		case <-time.After(c.cfg.HealthInterval):
		}
		subCancel()
	})()
	job := ""
	c.chunksDispatched.Add(1)
	res, err := wc.Submit(subCtx, client.Request{Kind: "sweep", Config: canon, Start: ck.start, Reps: ck.count},
		func(raw []byte) {
			var line client.Line
			if json.Unmarshal(raw, &line) != nil {
				return
			}
			switch line.Type {
			case "accepted":
				if job == "" && line.Job != "" {
					job = line.Job
					close(accepted)
				}
			case "progress":
				st.report(line.Rep, line.Error)
			}
		})
	if err == nil {
		var outs []metrics.Outcome
		if outs, err = decodeChunk(res.Payload, st.seed, ck.start, ck.count); err == nil {
			c.cache.Complete(entry, res.Payload, nil)
			c.remoteReps.Add(uint64(ck.count))
			st.finish(ck, outs)
			return
		}
	}
	// Withdraw the in-flight entry so the retry can lead it again.
	c.cache.Complete(entry, nil, err)
	if sctx.Err() != nil {
		// Sweep cancelled. The worker job runs detached from this
		// connection, so cancel it explicitly; no retry bookkeeping.
		if job != "" {
			dctx, dcancel := context.WithTimeout(context.Background(), c.cfg.HealthInterval)
			_ = wc.Cancel(dctx, job) // best effort: an unreachable worker cannot be told, and 409 means it already finished
			dcancel()
		}
		return
	}

	var we *client.APIError
	if errors.As(err, &we) && we.Backpressure() {
		// The envelope's retry hint is honored, not swallowed: wait it out
		// before the chunk re-enters the queue. 503 means the worker is
		// going away, so it also drops out of the live set until the
		// health loop sees it again; 429 is a healthy-but-busy node.
		ck.backpressures++
		if ck.backpressures > c.cfg.BackpressureRetries {
			st.fail(ck.start, fmt.Errorf("dist: chunk [%d,%d) refused %d times, last by %s: %w",
				ck.start, ck.start+ck.count, ck.backpressures, w.url, we))
			cancel()
			return
		}
		if we.Status == http.StatusServiceUnavailable {
			w.alive.Store(false)
		}
		c.chunksRetried.Add(1)
		wait := time.Duration(we.RetryAfterSeconds) * time.Second
		if wait <= 0 {
			wait = 250 * time.Millisecond
		}
		select {
		case <-time.After(wait):
		case <-sctx.Done():
			return
		}
		pending <- ck
		return
	}

	// Hard failure: connection refused, stream torn mid-chunk, execution
	// error. The worker is presumed dead (the health loop revives it if it
	// comes back) and the chunk is reassigned to whoever is still alive.
	ck.failures++
	w.alive.Store(false)
	if ck.failures > c.cfg.Retries {
		st.fail(ck.start, fmt.Errorf("dist: chunk [%d,%d) failed %d times, last on %s: %w",
			ck.start, ck.start+ck.count, ck.failures, w.url, err))
		cancel()
		return
	}
	c.chunksRetried.Add(1)
	pending <- ck
}

// decodeChunk parses the result payload of chunk [start, start+count) of a
// sweep over a config with the given seed, and checks that it holds
// exactly those replications: count outcomes, each with the seed its
// global replication index gets.
func decodeChunk(payload []byte, seed int64, start, count int) ([]metrics.Outcome, error) {
	var cp struct {
		Outcomes []metrics.Outcome `json:"outcomes"`
	}
	if err := json.Unmarshal(payload, &cp); err != nil {
		return nil, fmt.Errorf("dist: decoding chunk payload: %w", err)
	}
	if len(cp.Outcomes) != count {
		return nil, fmt.Errorf("dist: chunk payload has %d outcomes, want %d", len(cp.Outcomes), count)
	}
	for i, o := range cp.Outcomes {
		if want := scenario.ReplicationSeed(seed, start+i); o.Seed != want {
			return nil, fmt.Errorf("dist: chunk payload outcome %d has seed %d, want %d (replication %d)", i, o.Seed, want, start+i)
		}
	}
	return cp.Outcomes, nil
}
