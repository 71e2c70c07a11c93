package serve

// The job runner: the one way a job executes. Every cache miss — runs,
// trace runs and sweeps alike — executes in a background goroutine under
// the server's base context, not the submitting request's, so a
// disconnected client leaves the job running and every response (the POST
// stream and GET /v1/jobs/{id}/stream?offset=N alike) is just a tail of
// the job's journal. The journal is deterministic: line 0 is the accepted
// line, lines 1..reps are progress lines in strict replication order,
// then the result line and the result payload. A resumed stream stitched
// at any offset is therefore byte-identical to an uninterrupted one.
//
// Execution is segmented: each segment of replications runs through
// scenario.RunSweepRange (or the fleet's SweepRange), its outcomes are
// journaled, and only then do its progress lines enter the stream journal.
// The outcomes journal is always at or ahead of the progress lines, so
// recovery re-executes at most one segment and reconciles the stream
// journal to the frontier before continuing. Without a durable store the
// journal lives only in memory (nopStore), with the same lines.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
	"blackdp/internal/trace"
)

// Cancellation causes distinguish a DELETE (terminal: the journal gets an
// error line) from a drain (resumable under a durable store: the journal
// is left untouched for the next process).
var (
	errCanceledByClient = errors.New("serve: canceled by client")
	errShutdown         = errors.New("serve: server shutting down")
)

// storedSegmentReps is the smallest durability granularity: how many
// replications run between journal appends. Small enough that a crash
// loses little, large enough that journaling stays off the hot path.
const storedSegmentReps = 8

// liveStream is the in-memory mirror of one job's stream journal: the
// replay source for every tail, with a broadcast channel so tails block
// without polling.
type liveStream struct {
	mu     sync.Mutex
	lines  [][]byte
	closed bool
	wake   chan struct{}
}

func newLiveStream(lines [][]byte) *liveStream {
	return &liveStream{lines: lines, wake: make(chan struct{})}
}

func (st *liveStream) append(line []byte) {
	st.mu.Lock()
	st.lines = append(st.lines, line)
	close(st.wake)
	st.wake = make(chan struct{})
	st.mu.Unlock()
}

func (st *liveStream) close() {
	st.mu.Lock()
	if !st.closed {
		st.closed = true
		close(st.wake)
		st.wake = make(chan struct{})
	}
	st.mu.Unlock()
}

func (st *liveStream) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.lines)
}

// tail writes journal lines from offset onward, blocking for new lines
// until the stream closes or the client goes away. Lines are written
// byte-exact with a trailing newline and flushed individually, so a
// client stitching tails at any offsets reconstructs the journal exactly.
func (st *liveStream) tail(ctx context.Context, w http.ResponseWriter, offset int) {
	i := offset
	for {
		st.mu.Lock()
		var batch [][]byte
		if i < len(st.lines) {
			batch = st.lines[i:len(st.lines):len(st.lines)]
		}
		closed := st.closed
		wake := st.wake
		st.mu.Unlock()
		for _, line := range batch {
			if _, err := w.Write(append(append(make([]byte, 0, len(line)+1), line...), '\n')); err != nil {
				return
			}
		}
		if len(batch) > 0 {
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			i += len(batch)
			continue
		}
		if closed {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-wake:
		}
	}
}

// storedRun is one executing job's state.
type storedRun struct {
	job      *Job
	spec     jobSpec
	tenant   *tenantState
	entry    *Entry // the cache entry this run leads; nil for trace runs and recovered jobs
	ctx      context.Context
	cancel   context.CancelCauseFunc
	frontier int        // replications with journaled outcomes
	outcomes [][]byte   // their outcome lines, in replication order
	log      *trace.Log // a trace run's event log
}

// newStoredRun wires a run's context under the server base context.
func (s *Server) newStoredRun(job *Job, spec jobSpec, t *tenantState, outcomes [][]byte) *storedRun {
	run := &storedRun{job: job, spec: spec, tenant: t, frontier: len(outcomes), outcomes: outcomes}
	run.ctx, run.cancel = context.WithCancelCause(s.baseCtx)
	job.bindCancel(func() { run.cancel(errCanceledByClient) })
	return run
}

func (run *storedRun) journalRaw(s *Server, line []byte) error {
	if err := s.store.AppendStream(run.job.ID, line); err != nil {
		return err
	}
	run.job.stream.append(line)
	return nil
}

func (run *storedRun) journal(s *Server, l streamLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return run.journalRaw(s, b)
}

// progress journals the progress line of local replication i (global
// index start+i).
func (run *storedRun) progress(s *Server, i int) error {
	return run.journal(s, streamLine{Type: "progress", Job: run.job.ID,
		Rep: run.spec.start + i, Done: i + 1, Total: run.spec.reps})
}

// reconcile brings the stream journal up to the outcome frontier: the
// accepted line if the journal is empty, then any progress lines whose
// outcomes the previous process journaled but whose stream lines it did
// not reach before dying.
func (run *storedRun) reconcile(s *Server) error {
	if run.job.stream.count() == 0 {
		if err := run.journal(s, streamLine{Type: "accepted", Job: run.job.ID,
			Key: run.spec.key, Cache: "miss", Total: run.spec.reps}); err != nil {
			return err
		}
	}
	for i := run.job.stream.count() - 1; i < run.frontier; i++ {
		if err := run.progress(s, i); err != nil {
			return err
		}
	}
	return nil
}

// runStored is the background goroutine of one job: journal
// reconciliation, fair-share admission, segmented execution, terminal
// journaling.
func (s *Server) runStored(run *storedRun, wtr *waiter) {
	defer s.runnersWG.Done()
	if err := run.reconcile(s); err != nil {
		if wtr == nil || !s.adm.cancelWait(wtr) {
			s.adm.release(run.tenant)
		}
		s.finishStoredErr(run, err)
		return
	}
	if wtr != nil {
		s.queued.Add(1)
		select {
		case <-wtr.ready:
			s.queued.Add(-1)
		case <-run.ctx.Done():
			s.queued.Add(-1)
			if !s.adm.cancelWait(wtr) {
				s.adm.release(run.tenant)
			}
			s.finishStoredErr(run, context.Cause(run.ctx))
			return
		}
	}
	run.job.setStatus(StatusRunning)
	s.running.Add(1)
	start := time.Now()
	err := s.executeStored(run)
	s.running.Add(-1)
	s.adm.release(run.tenant)
	if err != nil {
		s.finishStoredErr(run, err)
		return
	}
	s.finishStoredDone(run, time.Since(start))
}

// executeStored runs the remaining replications in journaled segments.
func (s *Server) executeStored(run *storedRun) error {
	onRep := func(int, error) { s.mReps.Inc() }
	for run.frontier < run.spec.reps {
		count := min(s.segmentReps(run.spec), run.spec.reps-run.frontier)
		outcomes, err := s.execute(run, run.spec.start+run.frontier, count, onRep)
		if err != nil {
			return err
		}
		lines := make([][]byte, len(outcomes))
		for i, o := range outcomes {
			if lines[i], err = json.Marshal(o); err != nil {
				return err
			}
		}
		if err := s.store.AppendOutcomes(run.job.ID, lines); err != nil {
			return err
		}
		run.outcomes = append(run.outcomes, lines...)
		for i := 0; i < count; i++ {
			if err := run.progress(s, run.frontier+i); err != nil {
				return err
			}
		}
		run.frontier += count
	}
	return nil
}

// segmentReps sizes one journaled segment. Each segment is a barrier, so it
// must be wide enough to keep whatever executes it busy: the job's
// replication pool, or every live worker of the fleet.
func (s *Server) segmentReps(spec jobSpec) int {
	n := max(storedSegmentReps, s.pool(spec))
	if d := s.cfg.Distributor; d != nil {
		n = max(n, d.Width())
	}
	return n
}

func (s *Server) pool(spec jobSpec) int {
	if spec.pool > 0 {
		return spec.pool
	}
	return s.cfg.SweepWorkers
}

// finishStoredDone rebuilds the result payload from the journaled outcomes
// (outcome JSON round-trips exactly — the struct holds no floats), caches
// it, and journals the terminal lines. The count checks make completion
// idempotent across restarts: a process killed between the result line and
// the payload line leaves a journal the next process finishes without
// duplicating either.
func (s *Server) finishStoredDone(run *storedRun, elapsed time.Duration) {
	outs := make([]metrics.Outcome, len(run.outcomes))
	for i, b := range run.outcomes {
		if err := json.Unmarshal(b, &outs[i]); err != nil {
			s.finishStoredErr(run, fmt.Errorf("serve: corrupt stored outcome: %w", err))
			return
		}
	}
	payload, err := json.Marshal(resultPayload{Outcomes: outs, Summary: metrics.Aggregate(outs).Report()})
	if err != nil {
		s.finishStoredErr(run, err)
		return
	}
	if run.entry != nil {
		s.cache.Complete(run.entry, payload, nil)
	} else {
		s.cache.Put(run.spec.key, payload)
	}
	stream := run.job.stream
	if stream.count() == run.spec.reps+1 {
		if err := run.journal(s, streamLine{Type: "result", Job: run.job.ID,
			Cache: "miss", Total: run.spec.reps}); err != nil {
			s.finishStoredErr(run, err)
			return
		}
	}
	if stream.count() == run.spec.reps+2 {
		if err := run.journalRaw(s, payload); err != nil {
			s.finishStoredErr(run, err)
			return
		}
	}
	run.job.finish(StatusDone, "", payload, run.log)
	s.mJobs.Inc(StatusDone)
	s.mSeconds.Observe(elapsed.Seconds())
	stream.close()
}

// finishStoredErr ends a run that did not complete. A drain of a durable
// server leaves the journal untouched — the job resumes on restart;
// anything else (DELETE, a drain without a durable store, an execution
// error, a store write failure) is terminal and journals an error line.
func (s *Server) finishStoredErr(run *storedRun, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if c := context.Cause(run.ctx); c != nil {
			err = c
		}
	}
	if run.entry != nil {
		s.cache.Complete(run.entry, nil, err)
	}
	if errors.Is(err, errShutdown) && s.durable {
		run.job.stream.close()
		return
	}
	status := StatusFailed
	if errors.Is(err, errCanceledByClient) || errors.Is(err, errShutdown) {
		status = StatusCanceled
	}
	msg := err.Error()
	_ = run.journal(s, streamLine{Type: "error", Job: run.job.ID, Error: msg})
	run.job.finish(status, msg, nil, nil)
	s.mJobs.Inc(status)
	run.job.stream.close()
}

// execute runs global replications [start, start+count) of the job. A run
// is its single replication, seeded by the config itself; a sweep's range
// goes through the fleet when one is configured and alive, locally
// otherwise. Outcomes come back in replication order either way.
func (s *Server) execute(run *storedRun, start, count int, onRep func(int, error)) ([]metrics.Outcome, error) {
	spec := run.spec
	if spec.kind == "run" {
		cfg := spec.cfg
		cfg.Trace = spec.trace
		world, err := scenario.Build(cfg)
		if err != nil {
			return nil, err
		}
		o, err := world.RunContext(run.ctx)
		if err != nil {
			return nil, err
		}
		onRep(0, nil)
		if spec.trace {
			snap := world.Env.Tracer.Snapshot()
			run.log = &snap
		}
		return []metrics.Outcome{o}, nil
	}
	if d := s.cfg.Distributor; d != nil {
		outcomes, err := d.SweepRange(run.ctx, spec.cfg, start, count, onRep)
		if err == nil || !errors.Is(err, ErrNoWorkers) {
			return outcomes, err
		}
	}
	return scenario.RunSweepRange(run.ctx, spec.cfg, start, count,
		scenario.SweepOptions{Workers: s.pool(spec), OnRep: onRep}, nil)
}

// specFromStored rebuilds the validated jobSpec of a recovered job.
func specFromStored(sp StoredSpec) (jobSpec, error) {
	cfg, err := scenario.DecodeConfig(sp.Config)
	if err != nil {
		return jobSpec{}, err
	}
	fp, err := scenario.Fingerprint(cfg)
	if err != nil {
		return jobSpec{}, err
	}
	return jobSpec{kind: sp.Kind, cfg: cfg, start: sp.Start, reps: sp.Reps, pool: sp.Pool,
		trace: sp.Trace, key: jobKey(sp.Kind, sp.Start, sp.Reps, fp), rawCfg: sp.Config}, nil
}

// journalState classifies a recovered stream journal: terminal if it holds
// an error line, or a result line followed by its payload line.
func journalState(lines [][]byte) (terminal bool, status, errMsg string, payload []byte) {
	for i, b := range lines {
		var l streamLine
		if json.Unmarshal(b, &l) != nil {
			continue
		}
		switch l.Type {
		case "error":
			status = StatusFailed
			if l.Error == errCanceledByClient.Error() {
				status = StatusCanceled
			}
			return true, status, l.Error, nil
		case "result":
			if i+1 < len(lines) {
				return true, StatusDone, "", lines[i+1]
			}
			// Result line without its payload: the previous process died
			// between the two appends; completion is idempotent, resume.
			return false, "", "", nil
		}
	}
	return false, "", "", nil
}

// recoverStored reloads every stored job at startup: terminal jobs
// reappear in the registry (done results re-enter the cache), unfinished
// jobs re-enter admission — forced past the queue bound, restarts must
// never drop work — and resume at their outcome frontier.
func (s *Server) recoverStored() error {
	stored, err := s.store.Load()
	if err != nil {
		return err
	}
	var maxSeq uint64
	for _, sj := range stored {
		if n := jobSeq(sj.Spec.ID); n > maxSeq {
			maxSeq = n
		}
		spec, err := specFromStored(sj.Spec)
		if err != nil {
			return fmt.Errorf("serve: recovering %s: %w", sj.Spec.ID, err)
		}
		job := &Job{ID: sj.Spec.ID, Kind: spec.kind, Key: spec.key, Reps: spec.reps,
			Tenant: sj.Spec.Tenant, status: StatusQueued, created: time.Now(),
			stream: newLiveStream(sj.Stream)}
		job.setCache("miss")
		s.jobsMu.Lock()
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		s.jobsMu.Unlock()
		if terminal, status, errMsg, payload := journalState(sj.Stream); terminal {
			job.stream.close()
			job.finish(status, errMsg, payload, nil)
			if status == StatusDone && payload != nil {
				s.cache.Put(spec.key, payload)
			}
			continue
		}
		run := s.newStoredRun(job, spec, s.adm.lookup(sj.Spec.Tenant), sj.Outcomes)
		if run.tenant == nil {
			// The keyfile changed across the restart and this job's tenant
			// is gone; it cannot be re-admitted fairly, so it fails loudly
			// rather than running outside every quota.
			s.finishStoredErr(run, errors.New("tenant "+sj.Spec.Tenant+" is no longer configured"))
			continue
		}
		wtr, _ := s.adm.acquire(run.tenant, true)
		s.runnersWG.Add(1)
		go s.runStored(run, wtr)
	}
	s.seq.Store(maxSeq) // New recovers before serving, so nothing races this
	return nil
}

// submit admits a cache miss: spec persisted, runner started in the
// background, and the response is a tail of the journal from offset 0.
// A disconnecting client stops only its tail — the job keeps running.
// entry is the cache entry the job leads (nil for trace runs).
func (s *Server) submit(w http.ResponseWriter, r *http.Request, t *tenantState, spec jobSpec, entry *Entry) {
	wtr, ok := s.adm.acquire(t, false)
	if !ok {
		if entry != nil {
			s.cache.Complete(entry, nil, errors.New("serve: rejected by admission control"))
		}
		s.mRejected.Inc()
		s.mTenantRejected.Inc(t.cfg.Name)
		WriteError(w, http.StatusTooManyRequests, "queue_full",
			"tenant "+t.cfg.Name+" job queue is full", s.retryAfterSeconds())
		return
	}
	s.mAccepted.Inc()
	s.mTenantAccepted.Inc(t.cfg.Name)
	job := s.newJob(spec, t.cfg.Name)
	if err := s.store.PutSpec(StoredSpec{ID: job.ID, Kind: spec.kind, Tenant: t.cfg.Name,
		Start: spec.start, Reps: spec.reps, Pool: spec.pool, Trace: spec.trace, Config: spec.rawCfg}); err != nil {
		if wtr == nil || !s.adm.cancelWait(wtr) {
			s.adm.release(t)
		}
		if entry != nil {
			s.cache.Complete(entry, nil, err)
		}
		job.finish(StatusFailed, err.Error(), nil, nil)
		s.mJobs.Inc(StatusFailed)
		WriteError(w, http.StatusInternalServerError, "store_error",
			"persisting job spec: "+err.Error(), 0)
		return
	}
	job.setCache("miss")
	run := s.newStoredRun(job, spec, t, nil)
	run.entry = entry
	s.runnersWG.Add(1)
	go s.runStored(run, wtr)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Blackdp-Cache", "miss")
	job.stream.tail(r.Context(), w, 0)
}

// handleStream is GET /v1/jobs/{id}/stream?offset=N: a byte-exact replay
// of the job's journal from line offset N, tailing live lines until the
// job finishes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authorize(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	job := s.lookup(id)
	if job == nil || !s.visible(job, t) {
		WriteError(w, http.StatusNotFound, "not_found", "no such job: "+id, 0)
		return
	}
	offset := 0
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "bad_request",
				"offset must be a non-negative integer", 0)
			return
		}
		offset = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	job.stream.tail(r.Context(), w, offset)
}
