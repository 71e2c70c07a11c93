package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"blackdp/internal/scenario"
	"blackdp/internal/trace"
)

// Request is the POST /v1/jobs payload. Config is layered over DefaultConfig
// exactly like a config file, so a payload only names the fields it changes.
type Request struct {
	// Kind selects the workload: "run" (one simulation) or "sweep" (Reps
	// replications with derived seeds, the Figure 4/5 building block).
	Kind string `json:"kind"`
	// Config is the scenario configuration (scenario.Config JSON).
	Config json.RawMessage `json:"config"`
	// Reps is the replication count for sweeps (ignored for runs).
	Reps int `json:"reps,omitempty"`
	// Start is the global index of a sweep's first replication (default
	// 0). Replication seeds are a pure function of the global index, so a
	// sweep split into ranges [0,k) and [k,n) concatenates to exactly the
	// outcomes of one n-replication sweep. Sweeps only.
	Start int `json:"start,omitempty"`
	// Workers overrides the per-job sweep pool size (0 = server default).
	Workers int `json:"workers,omitempty"`
	// Trace retains the structured event log for GET /v1/jobs/{id}/trace.
	// Trace jobs always execute — an event log cannot come from the result
	// cache — but still publish their result bytes into it. Runs only.
	Trace bool `json:"trace,omitempty"`
}

// jobSpec is a validated, admission-ready request.
type jobSpec struct {
	kind   string
	cfg    scenario.Config
	start  int
	reps   int
	pool   int
	trace  bool
	key    string // canonical cache key
	rawCfg []byte // the request's config JSON, persisted for durable jobs
}

// parseRequest validates a request body against the server limits.
func parseRequest(body []byte, maxReps int) (jobSpec, error) {
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return jobSpec{}, fmt.Errorf("parsing request: %w", err)
	}
	spec := jobSpec{kind: req.Kind, start: req.Start, reps: req.Reps, pool: req.Workers, trace: req.Trace}
	switch req.Kind {
	case "run":
		if req.Start != 0 {
			return jobSpec{}, fmt.Errorf("start is only available for kind \"sweep\"")
		}
		spec.reps = 1
	case "sweep":
		if req.Start < 0 {
			return jobSpec{}, fmt.Errorf("sweep start must be >= 0, got %d", req.Start)
		}
		if req.Reps < 1 {
			return jobSpec{}, fmt.Errorf("sweep needs reps >= 1, got %d", req.Reps)
		}
		if req.Reps > maxReps {
			return jobSpec{}, fmt.Errorf("sweep of %d reps exceeds the server limit of %d", req.Reps, maxReps)
		}
		if req.Trace {
			return jobSpec{}, fmt.Errorf("trace retention is only available for kind \"run\"")
		}
	default:
		return jobSpec{}, fmt.Errorf("unknown kind %q (want \"run\" or \"sweep\")", req.Kind)
	}
	raw := req.Config
	if len(raw) == 0 {
		raw = []byte("{}")
	}
	cfg, err := scenario.DecodeConfig(raw)
	if err != nil {
		return jobSpec{}, err
	}
	spec.cfg = cfg
	spec.rawCfg = raw
	fp, err := scenario.Fingerprint(cfg)
	if err != nil {
		return jobSpec{}, err
	}
	spec.key = jobKey(spec.kind, spec.start, spec.reps, fp)
	return spec, nil
}

// jobKey is the cache key: the canonical config hash together with the
// workload shape. A range sweep's key carries its start ("sweep/8+4/<fp>");
// a sweep from 0 keeps the plain "sweep/<reps>/<fp>" form. The per-job pool
// size is deliberately excluded: by the replay-determinism guarantee it
// cannot change the bytes.
func jobKey(kind string, start, reps int, fp string) string {
	if start == 0 {
		return fmt.Sprintf("%s/%d/%s", kind, reps, fp)
	}
	return fmt.Sprintf("%s/%d+%d/%s", kind, start, reps, fp)
}

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Job is the retained record of one accepted request.
type Job struct {
	ID     string `json:"job"`
	Kind   string `json:"kind"`
	Key    string `json:"key"`
	Reps   int    `json:"reps"`
	Tenant string `json:"tenant"`

	mu       sync.Mutex
	status   string
	cache    string // "hit", "miss" or "" while queued
	errMsg   string
	result   []byte // the cached/streamed payload line
	traceLog *trace.Log
	created  time.Time
	finished time.Time
	cancel   context.CancelFunc // cancels the job's execution context

	// stream is the job's NDJSON response, line by line: the POST response
	// and every GET /v1/jobs/{id}/stream?offset=N are tails of it.
	stream *liveStream
}

// view is the GET /v1/jobs/{id} projection.
type jobView struct {
	ID        string          `json:"job"`
	Kind      string          `json:"kind"`
	Key       string          `json:"key"`
	Reps      int             `json:"reps"`
	Tenant    string          `json:"tenant,omitempty"`
	Status    string          `json:"status"`
	Cache     string          `json:"cache,omitempty"`
	Error     string          `json:"error,omitempty"`
	ElapsedMS int64           `json:"elapsed_ms"`
	HasTrace  bool            `json:"has_trace"`
	Result    json.RawMessage `json:"result,omitempty"`
}

func (j *Job) view(withResult bool) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{ID: j.ID, Kind: j.Kind, Key: j.Key, Reps: j.Reps, Tenant: j.Tenant,
		Status: j.status, Cache: j.cache, Error: j.errMsg, HasTrace: j.traceLog != nil}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	v.ElapsedMS = end.Sub(j.created).Milliseconds()
	if withResult && j.result != nil {
		v.Result = json.RawMessage(j.result)
	}
	return v
}

func (j *Job) setStatus(status string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
}

func (j *Job) setCache(marker string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cache = marker
}

func (j *Job) finish(status, errMsg string, result []byte, log *trace.Log) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
	j.errMsg = errMsg
	j.result = result
	j.traceLog = log
	j.finished = time.Now()
}

// bindCancel attaches the job's cancel func so DELETE /v1/jobs/{id} can
// abort the job from any connection.
func (j *Job) bindCancel(fn context.CancelFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = fn
}

// Cancel aborts a queued or running job and reports whether there was
// anything left to cancel. The job reaches StatusCanceled through its
// runner observing the context, not here — Cancel only pulls the trigger,
// so a cancelled job's stream still terminates with its error line and the
// fleet fan-out (if any) unwinds through the context chain.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancel == nil || j.status == StatusDone || j.status == StatusFailed || j.status == StatusCanceled {
		return false
	}
	j.cancel()
	return true
}

func (j *Job) traceSnapshot() *trace.Log {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceLog
}

func (j *Job) done() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusDone || j.status == StatusFailed || j.status == StatusCanceled
}
