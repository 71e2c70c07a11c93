// Package serve turns the batch simulator into a long-running HTTP service:
// simulation and sweep jobs arrive as JSON, execute on a bounded worker pool
// layered over internal/exp, and stream per-replication progress back as
// NDJSON. Identical requests — byte-identical by the replay-determinism
// guarantee — are answered from a deterministic LRU result cache keyed by
// the canonical config hash (scenario.Fingerprint), with single-flight
// coalescing for requests that overlap in flight.
//
// The API is versioned under /v1; every other path answers the enveloped
// 404:
//
//	POST   /v1/jobs            submit a job; the response is an NDJSON stream
//	                           of accepted/progress/result lines, the final
//	                           line being the result payload itself
//	GET    /v1/jobs            list retained jobs (the caller's tenant)
//	GET    /v1/jobs/{id}       one job's status and result
//	DELETE /v1/jobs/{id}       cancel a queued or running job; with a fleet
//	                           configured the cancellation fans out to every
//	                           worker holding one of the job's chunks
//	GET  /v1/jobs/{id}/stream  byte-exact replay of a job's NDJSON stream
//	                           from ?offset=N, tailing until done
//	GET  /v1/jobs/{id}/trace the retained event log of a trace-enabled run
//	GET  /v1/metrics         Prometheus text exposition
//	GET  /v1/healthz         liveness and drain state
//
// Every non-2xx response carries the JSON envelope
// {"code", "message", "retry_after_seconds"}; retry_after_seconds is only
// present when the matching Retry-After header is set (429 and 503).
//
// Multi-tenancy (Config.Tenants): requests authenticate with
// "Authorization: Bearer <key>", each tenant has a token-bucket submission
// rate and its own bounded admission queue, and the execution slots are
// granted round-robin across tenants — a tenant saturating its bucket or
// queue is rejected with 429 (rate_limited / queue_full) while the others
// keep their share. Per-tenant counters and gauges join /v1/metrics. With
// no tenants configured the server is open and behaves as a single
// unlimited tenant, preserving the original admission semantics.
//
// One job engine: every cache miss — run, trace run or sweep — executes on
// the journaled runner (runner.go), detached from the submitting
// connection: disconnecting stops the tail, not the job, and DELETE
// cancels it. A sweep may name a replication range ("start" plus "reps"),
// which is how a coordinator's fleet workers — plain servers — execute
// their chunks. Durability (Config.Store): jobs journal their spec, their
// stream lines and their per-replication outcomes through a JobStore; a
// restarted server resumes unfinished jobs at the journaled frontier, and
// resumed streams stitched through /stream?offset=N are byte-identical to
// uninterrupted ones.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blackdp/internal/exp"
	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
)

// Distributor executes a contiguous slice of a sweep's replication range
// across a fleet of remote worker nodes instead of the local replication
// pool. The contract mirrors scenario.RunSweep: outcomes come back in
// replication order for global replications [start, start+count) and must
// be byte-identical to a local run of the same canonical config (the
// distributed differential suite in internal/dist holds implementations to
// it). onRep is called — serialised, but not in replication order — with
// global replication indexes as results stream back from the fleet. A
// Distributor that finds no live workers returns an error wrapping
// ErrNoWorkers, which tells the server to fall back to local execution
// rather than fail the job.
//
// internal/dist.Coordinator is the production implementation; it is wired
// in through Config.Distributor by cmd/blackdp-serve's -fleet flag.
type Distributor interface {
	SweepRange(ctx context.Context, cfg scenario.Config, start, count int, onRep func(rep int, err error)) ([]metrics.Outcome, error)
	// Width is how many replications the fleet executes at once right
	// now; the runner sizes its journal segments to at least this.
	Width() int
}

// ErrNoWorkers reports that a Distributor has no live worker to dispatch
// to. The server treats it as "the fleet is not available right now" and
// executes the sweep locally; any other distributor error fails the job.
var ErrNoWorkers = errors.New("serve: no live workers in the fleet")

// Config tunes the service.
type Config struct {
	// Workers is the number of jobs executing concurrently (default 2).
	// Each sweep job additionally fans replications across its own
	// internal/exp pool, so total parallelism is Workers x SweepWorkers.
	Workers int
	// QueueDepth is how many admitted jobs may wait for a worker — per
	// tenant — before admission control starts rejecting that tenant with
	// 429 (default 16; negative means no queue at all — reject unless a
	// worker is free).
	QueueDepth int
	// CacheEntries bounds the result cache (default 128 completed entries).
	CacheEntries int
	// SweepWorkers is the default per-job replication pool (0 = one per
	// CPU); a request's "workers" field overrides it per job.
	SweepWorkers int
	// MaxReps caps a single sweep request (default 10000).
	MaxReps int
	// RetainJobs bounds the completed-job registry (default 256).
	RetainJobs int
	// RetryAfter is advertised on 429/503 responses (default 1s).
	RetryAfter time.Duration
	// Tenants declares the API keys. Empty means an open server: no
	// authentication, one unlimited anonymous tenant.
	Tenants []Tenant
	// Store, when non-nil, makes jobs durable: specs and journals persist
	// through it and unfinished jobs resume on restart. A trace run's event
	// log stays in memory only. Nil keeps every journal in memory.
	Store JobStore
	// Distributor, when non-nil, fans sweep jobs out across a worker fleet
	// (see the Distributor interface). Runs and trace jobs always execute
	// locally. If the distributor additionally implements
	// interface{ RegisterMetrics(*Registry) } its fabric instruments are
	// registered on the server's /metrics registry at construction.
	Distributor Distributor
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = exp.DefaultWorkers()
	}
	if c.MaxReps <= 0 {
		c.MaxReps = 10_000
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the simulation service. Create with New, expose with Handler or
// Serve, stop with Drain.
type Server struct {
	cfg   Config
	cache *Cache
	reg   *Registry
	mux   *http.ServeMux
	http  *http.Server
	adm   *admission
	store JobStore
	// durable reports a configured Store: drained jobs resume on the next
	// start instead of running out the grace period.
	durable bool

	// baseCtx parents every job's execution context so Drain can interrupt
	// them.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	runnersWG  sync.WaitGroup

	queued   atomic.Int64
	running  atomic.Int64
	draining atomic.Bool

	seq    atomic.Uint64
	jobsMu sync.Mutex
	jobs   map[string]*Job
	order  []string

	mAccepted       *Counter
	mRejected       *Counter
	mJobs           *CounterVec
	mReps           *Counter
	mSeconds        *Histogram
	mTenantAccepted *CounterVec
	mTenantRejected *CounterVec
	mTenantRate     *CounterVec
}

// New builds a server with cfg (zero fields take defaults). It fails on an
// invalid tenant set or an unreadable job store; with a store configured,
// unfinished stored jobs resume executing before New returns.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	adm, err := newAdmission(cfg.Workers, cfg.QueueDepth, cfg.Tenants)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries),
		reg:     &Registry{},
		mux:     http.NewServeMux(),
		adm:     adm,
		store:   cfg.Store,
		durable: cfg.Store != nil,
		jobs:    make(map[string]*Job),
	}
	if !s.durable {
		s.store = nopStore{}
	}
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.http = &http.Server{Handler: s.mux}

	s.mAccepted = s.reg.Counter("blackdp_serve_jobs_accepted_total",
		"Jobs admitted, including ones answered from the cache.")
	s.mRejected = s.reg.Counter("blackdp_serve_jobs_rejected_total",
		"Jobs rejected with 429 by admission control or rate limiting.")
	s.mJobs = s.reg.CounterVec("blackdp_serve_jobs_total",
		"Executed jobs by final status.", "status", StatusDone, StatusFailed, StatusCanceled)
	s.mReps = s.reg.Counter("blackdp_serve_reps_completed_total",
		"Simulation replications completed across all jobs.")
	s.reg.CounterFunc("blackdp_serve_cache_hits_total",
		"Requests answered from the result cache (completed entries plus in-flight joins).",
		func() uint64 { st := s.cache.Stats(); return st.Hits + st.Joins })
	s.reg.CounterFunc("blackdp_serve_cache_misses_total",
		"Requests that had to execute the simulation.",
		func() uint64 { return s.cache.Stats().Misses })
	s.reg.CounterFunc("blackdp_serve_cache_coalesced_total",
		"Cache hits that joined a result still being computed.",
		func() uint64 { return s.cache.Stats().Joins })
	s.reg.GaugeFunc("blackdp_serve_cache_entries",
		"Entries currently in the result cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	s.reg.GaugeFunc("blackdp_serve_jobs_running",
		"Jobs currently executing.",
		func() float64 { return float64(s.running.Load()) })
	s.reg.GaugeFunc("blackdp_serve_queue_depth",
		"Admitted jobs waiting for a worker.",
		func() float64 { return float64(s.queued.Load()) })
	s.mSeconds = s.reg.Histogram("blackdp_serve_job_seconds",
		"Wall time per executed job.", 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60)

	names := adm.names()
	s.mTenantAccepted = s.reg.CounterVec("blackdp_serve_tenant_jobs_accepted_total",
		"Jobs admitted per tenant.", "tenant", names...)
	s.mTenantRejected = s.reg.CounterVec("blackdp_serve_tenant_jobs_rejected_total",
		"Jobs rejected per tenant by the admission queue bound.", "tenant", names...)
	s.mTenantRate = s.reg.CounterVec("blackdp_serve_tenant_rate_limited_total",
		"Jobs rejected per tenant by the token-bucket rate limit.", "tenant", names...)
	s.reg.GaugeVecFunc("blackdp_serve_tenant_queued",
		"Jobs waiting for a worker per tenant.", "tenant", names,
		func(name string) float64 { return float64(s.adm.queued(name)) })
	s.reg.GaugeVecFunc("blackdp_serve_tenant_running",
		"Jobs executing per tenant.", "tenant", names,
		func(name string) float64 { return float64(s.adm.running(name)) })

	// A distributor that carries its own instruments (the dist coordinator's
	// fabric gauges and counters) exposes them through the same registry, so
	// one /metrics scrape covers the whole fabric.
	if mr, ok := cfg.Distributor.(interface{ RegisterMetrics(*Registry) }); ok {
		mr.RegisterMetrics(s.reg)
	}

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, "not_found", "no such route: "+r.URL.Path, 0)
	})

	if err := s.recoverStored(); err != nil {
		s.baseCancel(errShutdown)
		return nil, err
	}
	return s, nil
}

// Handler exposes the service mux (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// SetHandler replaces the handler Serve exposes, letting callers wrap the
// service mux (e.g. with net/http/pprof debug routes) while keeping Drain's
// shutdown semantics. It must be called before Serve.
func (s *Server) SetHandler(h http.Handler) { s.http.Handler = h }

// Serve accepts connections on l until Drain; it returns
// http.ErrServerClosed after a clean drain, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Drain stops admission (new submissions get 503) and ends the running
// jobs under one rule: with a durable store they are interrupted at once
// (their journals are left for the next process, which resumes them);
// otherwise they run on until ctx's deadline, and whatever still runs then
// is interrupted with a terminal error line. Drain then waits for
// in-flight responses and returns the final cache statistics for the
// shutdown log.
func (s *Server) Drain(ctx context.Context) (CacheStats, error) {
	s.draining.Store(true)
	if s.durable {
		s.baseCancel(errShutdown)
	}
	runnersDone := make(chan struct{})
	go func() { s.runnersWG.Wait(); close(runnersDone) }()
	select {
	case <-runnersDone:
	case <-ctx.Done():
		s.baseCancel(errShutdown)
		<-runnersDone // cancellation is prompt: runners journal their error lines and exit
	}
	err := s.http.Shutdown(ctx)
	return s.cache.Stats(), err
}

// Running reports how many jobs are executing right now.
func (s *Server) Running() int { return int(s.running.Load()) }

// resultPayload is the final NDJSON line of a successful job — the bytes
// the cache stores and replays verbatim, so identical requests get
// byte-identical outcome JSON.
type resultPayload struct {
	Outcomes []metrics.Outcome `json:"outcomes"`
	Summary  metrics.Report    `json:"summary"`
}

func (s *Server) retryAfterSeconds() int {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// APIError is the typed envelope of every non-2xx response: a stable
// machine-readable code, a human-readable message, and — on responses that
// also carry a Retry-After header — the same back-off hint as a number, so
// clients need not parse the header.
type APIError struct {
	Code              string `json:"code"`
	Message           string `json:"message"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// WriteError emits the JSON error envelope; retryAfter <= 0 omits the hint
// and the Retry-After header.
func WriteError(w http.ResponseWriter, status int, code, message string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(APIError{Code: code, Message: message, RetryAfterSeconds: retryAfter})
}

type streamLine struct {
	Type      string `json:"type"`
	Job       string `json:"job"`
	Key       string `json:"key,omitempty"`
	Cache     string `json:"cache,omitempty"`
	Rep       int    `json:"rep,omitempty"`
	Done      int    `json:"done,omitempty"`
	Total     int    `json:"total,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`
}

// authorize resolves the request's tenant, answering 401 with the envelope
// when keys are configured and the bearer token is missing or unknown.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) (*tenantState, bool) {
	t := s.adm.authenticate(r.Header.Get("Authorization"))
	if t == nil {
		w.Header().Set("WWW-Authenticate", `Bearer realm="blackdp"`)
		WriteError(w, http.StatusUnauthorized, "unauthorized",
			"missing or unknown API key", 0)
		return nil, false
	}
	return t, true
}

// visible reports whether t may see job. Tenants only see their own jobs
// (an open server has a single tenant, so everything is visible); unknown
// jobs and other tenants' jobs are indistinguishable — both 404.
func (s *Server) visible(job *Job, t *tenantState) bool {
	return s.adm.open || job.Tenant == t.cfg.Name
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "draining",
			"server is draining and not accepting jobs", s.retryAfterSeconds())
		return
	}
	t, ok := s.authorize(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", "reading request: "+err.Error(), 0)
		return
	}
	spec, err := parseRequest(body, s.cfg.MaxReps)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	// The rate limit charges every submission — cache hits included — at
	// the door: it bounds request pressure, not compute.
	if ok, wait := s.adm.takeToken(t, time.Now()); !ok {
		s.mRejected.Inc()
		s.mTenantRate.Inc(t.cfg.Name)
		retry := int(math.Ceil(wait.Seconds()))
		if retry < 1 {
			retry = 1
		}
		WriteError(w, http.StatusTooManyRequests, "rate_limited",
			"tenant "+t.cfg.Name+" is over its submission rate", retry)
		return
	}

	// Every job but a trace run sits behind the cache front: a completed or
	// in-flight entry answers without executing. Trace runs always execute —
	// an event log cannot come from the cache — but still publish their
	// result bytes on completion.
	var entry *Entry
	if !spec.trace {
		var leader bool
		if entry, leader = s.cache.Begin(spec.key); !leader {
			s.serveCached(w, r, t, spec, entry)
			return
		}
	}
	s.submit(w, r, t, spec, entry)
}

// serveCached answers a request whose key is already cached or in flight.
// Like an executed job, the hit is a stream the response tails, so a
// disconnect stops only the tail and DELETE cancels a join still waiting.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, t *tenantState, spec jobSpec, entry *Entry) {
	s.mAccepted.Inc()
	s.mTenantAccepted.Inc(t.cfg.Name)
	job := s.newJob(spec, t.cfg.Name)
	job.setCache("hit")
	ctx, cancel := context.WithCancel(s.baseCtx)
	job.bindCancel(cancel)
	appendLine := func(l streamLine) {
		b, _ := json.Marshal(l) // a streamLine always marshals
		job.stream.append(b)
	}
	appendLine(streamLine{Type: "accepted", Job: job.ID, Key: spec.key, Cache: "hit", Total: spec.reps})
	start := time.Now()
	s.runnersWG.Add(1)
	go func() {
		defer s.runnersWG.Done()
		defer cancel()
		// As in journalLast, the job finishes before its terminal line
		// reaches any tail.
		payload, err := entry.Wait(ctx)
		if err != nil {
			status := StatusFailed
			if ctx.Err() != nil {
				status = StatusCanceled
			}
			job.finish(status, err.Error(), nil, nil)
			s.mJobs.Inc(status)
			appendLine(streamLine{Type: "error", Job: job.ID, Error: err.Error()})
		} else {
			appendLine(streamLine{Type: "result", Job: job.ID, Cache: "hit",
				ElapsedMS: time.Since(start).Milliseconds(), Total: spec.reps})
			job.finish(StatusDone, "", payload, nil)
			s.mJobs.Inc(StatusDone)
			job.stream.append(payload)
		}
		job.stream.close()
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Blackdp-Cache", "hit")
	job.stream.tail(r.Context(), w, 0)
}

// newJob registers a retained job record, evicting the oldest finished jobs
// beyond the retention bound (evicted jobs drop their journals and store
// artifacts with them).
func (s *Server) newJob(spec jobSpec, tenant string) *Job {
	j := &Job{ID: fmt.Sprintf("j-%d", s.seq.Add(1)), Kind: spec.kind, Key: spec.key,
		Reps: spec.reps, Tenant: tenant, status: StatusQueued, created: time.Now(),
		stream: newLiveStream(nil)}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.order) > s.cfg.RetainJobs {
		evicted := false
		for i, id := range s.order {
			if s.jobs[id].done() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				_ = s.store.Remove(id)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything is in flight; admission bounds this
		}
	}
	return j
}

func (s *Server) lookup(id string) *Job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authorize(w, r)
	if !ok {
		return
	}
	s.jobsMu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		if s.visible(s.jobs[id], t) {
			views = append(views, s.jobs[id].view(false))
		}
	}
	s.jobsMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Jobs []jobView `json:"jobs"`
	}{views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authorize(w, r)
	if !ok {
		return
	}
	job := s.lookup(r.PathValue("id"))
	if job == nil || !s.visible(job, t) {
		WriteError(w, http.StatusNotFound, "not_found", "no such job: "+r.PathValue("id"), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(job.view(true))
}

// handleCancel is DELETE /v1/jobs/{id}: it cancels a queued or running
// job's execution context. For distributed sweeps the cancellation fans out
// end-to-end — the coordinator's in-flight chunk submissions are ctx-bound,
// and when they end the coordinator DELETEs its chunk jobs on the workers,
// stopping the remote replication pools too. Cancelling is terminal: the
// journal ends with an error line and the job does not resume on restart.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authorize(w, r)
	if !ok {
		return
	}
	job := s.lookup(r.PathValue("id"))
	if job == nil || !s.visible(job, t) {
		WriteError(w, http.StatusNotFound, "not_found", "no such job: "+r.PathValue("id"), 0)
		return
	}
	if !job.Cancel() {
		WriteError(w, http.StatusConflict, "already_finished",
			"job "+job.ID+" already finished", 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(struct {
		Job    string `json:"job"`
		Status string `json:"status"`
	}{job.ID, "canceling"})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authorize(w, r)
	if !ok {
		return
	}
	job := s.lookup(r.PathValue("id"))
	if job == nil || !s.visible(job, t) {
		WriteError(w, http.StatusNotFound, "not_found", "no such job: "+r.PathValue("id"), 0)
		return
	}
	log := job.traceSnapshot()
	if log == nil {
		WriteError(w, http.StatusNotFound, "no_trace",
			"job retained no trace (submit with \"trace\": true)", 0)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = log.Dump(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.Render(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Status string `json:"status"`
	}{status})
}
