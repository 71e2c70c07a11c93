package workload

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"blackdp/perf/stats"
	"blackdp/serve/client"
)

const (
	// serveSpawns is how many times the server's start-up is timed; the
	// last process started serves the mix.
	serveSpawns = 5
	// ServeFixedOps is the per-client plan prefix that always runs, however
	// fast the clients go. Accuracy and detection packets are computed over
	// exactly these operations, so they repeat across runs of one seed.
	ServeFixedOps = 60
	// servePlanLen bounds one client's plan; a run that exhausts it stops
	// early rather than loop.
	servePlanLen = 20_000
)

// Tenants are the serve-mixed API keys, one client per tenant.
var Tenants = []struct{ Name, Key string }{{"alice", "alice-key"}, {"bob", "bob-key"}}

// Server is one blackdp-serve process started for the benchmark.
type Server struct {
	URL   string
	Store string
	cmd   *exec.Cmd
	done  chan error
}

// StartServer launches serveBin on an ephemeral loopback port with a
// durable store in store and the benchmark's tenants, and waits until
// /v1/healthz answers. It returns the server and the time from spawn to a
// healthy answer.
func StartServer(ctx context.Context, serveBin, store string) (*Server, time.Duration, error) {
	args := []string{"-addr", "127.0.0.1:0", "-store", store}
	for _, t := range Tenants {
		args = append(args, "-api-key", t.Name+":"+t.Key)
	}
	t0 := time.Now()
	cmd := exec.Command(serveBin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", serveBin, err)
	}
	s := &Server{Store: store, cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Read the start-up handshake, then drain the log until exit.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "blackdp-serve listening on "); ok {
				addr <- a
			}
		}
		close(addr)
		s.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return nil, 0, fmt.Errorf("blackdp-serve exited before listening: %v", <-s.done)
		}
		s.URL = "http://" + a
	case <-time.After(30 * time.Second):
		s.Stop()
		return nil, 0, errors.New("blackdp-serve did not report its address within 30s")
	}
	for !client.Probe(ctx, nil, s.URL) {
		if time.Since(t0) > 30*time.Second {
			s.Stop()
			return nil, 0, errors.New("blackdp-serve did not become healthy within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return s, time.Since(t0), nil
}

// Pid is the server's process ID.
func (s *Server) Pid() int { return s.cmd.Process.Pid }

// Stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 20 seconds.
func (s *Server) Stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		return fmt.Errorf("blackdp-serve did not drain within 20s: %v", <-s.done)
	}
}

// Client returns a typed client for tenant i.
func (s *Server) Client(i int) *client.Client {
	return &client.Client{BaseURL: s.URL, Key: Tenants[i].Key, HTTP: &http.Client{}}
}

// OpRecord is what a client observed of one operation: when it started, when
// each stream line arrived, and how it ended. The traced mode turns these
// into serve.* spans.
type OpRecord struct {
	Client int
	Index  int
	Kind   OpKind
	Start  time.Time
	// Lines are the raw stream lines with their arrival times.
	Lines [][]byte
	At    []time.Time
	End   time.Time
	// Cache is the result line's cache marker.
	Cache string
	// ElapsedMS is the server-reported execution time on the result line
	// (0 when the line carries none).
	ElapsedMS int64
	// FetchStart and FetchEnd bound a trace job's GET of its event log.
	FetchStart, FetchEnd time.Time
	Err                  error
}

// Latency is the client-side time from submit to the end of the operation.
func (t *OpRecord) Latency() time.Duration { return t.End.Sub(t.Start) }

// MixStats is the outcome of driving the mix.
type MixStats struct {
	Wall time.Duration
	Ops  []*OpRecord // in completion order, both clients
	// Payloads are the result payloads of the fixed-prefix jobs, per client.
	Payloads [][][]byte
}

// clientState is one client's view of its own earlier operations.
type clientState struct {
	payload map[int][]byte   // result payload by operation index
	lines   map[int][][]byte // full stream by sweep operation index
	jobs    map[int]string   // job ID by operation index
	request map[int]client.Request
}

// DriveMix runs both clients closed-loop over their plans until d elapses
// (and at least the fixed prefix is done), checking every output into r.
// observe, when non-nil, sees each finished operation.
func DriveMix(ctx context.Context, s *Server, seed int64, d time.Duration, r *Result, observe func(*OpRecord)) MixStats {
	var (
		mu    sync.Mutex
		st    MixStats
		wg    sync.WaitGroup
		start = time.Now()
	)
	st.Payloads = make([][][]byte, len(Tenants))
	for ci := range Tenants {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := s.Client(ci)
			cs := &clientState{payload: map[int][]byte{}, lines: map[int][][]byte{}, jobs: map[int]string{}, request: map[int]client.Request{}}
			plan := Plan(seed, ci, servePlanLen)
			for i, op := range plan {
				if i >= ServeFixedOps && (time.Since(start) >= d || ctx.Err() != nil) {
					return
				}
				t := runOp(ctx, c, cs, ci, i, op)
				mu.Lock()
				checkOp(r, cs, t, op)
				st.Ops = append(st.Ops, t)
				if i < ServeFixedOps && cs.payload[i] != nil {
					st.Payloads[ci] = append(st.Payloads[ci], cs.payload[i])
				}
				if observe != nil {
					observe(t)
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	st.Wall = time.Since(start)
	return st
}

// runOp executes one planned operation.
func runOp(ctx context.Context, c *client.Client, cs *clientState, ci, i int, op Op) *OpRecord {
	t := &OpRecord{Client: ci, Index: i, Kind: op.Kind, Start: time.Now()}
	onRaw := func(line []byte) {
		t.Lines = append(t.Lines, append([]byte(nil), line...))
		t.At = append(t.At, time.Now())
	}
	var req client.Request
	switch op.Kind {
	case OpFresh:
		req = client.Request{Kind: "run", Config: ServeConfig(op.Seed, 0)}
	case OpFreshSharded:
		req = client.Request{Kind: "run", Config: ServeConfig(op.Seed, ShardWorkers())}
	case OpRepeat:
		req = cs.request[op.Target]
	case OpSweep:
		req = client.Request{Kind: "sweep", Reps: SweepReps, Config: ServeConfig(op.Seed, 0)}
	case OpTrace:
		req = client.Request{Kind: "run", Trace: true, Config: ServeConfig(op.Seed, 0)}
	case OpRetail:
		res, err := c.Stream(ctx, cs.jobs[op.Target], op.Offset, onRaw)
		t.End, t.Err = time.Now(), err
		if err == nil {
			t.Cache = res.Cache
		}
		return t
	}
	res, err := c.Submit(ctx, req, onRaw)
	t.End, t.Err = time.Now(), err
	if err != nil {
		return t
	}
	t.Cache = res.Cache
	cs.request[i] = req
	cs.payload[i] = res.Payload
	cs.jobs[i] = res.Job
	if op.Kind == OpSweep {
		cs.lines[i] = t.Lines
	}
	for _, raw := range t.Lines {
		var l client.Line
		if json.Unmarshal(raw, &l) == nil && l.Type == "result" {
			t.ElapsedMS = l.ElapsedMS
		}
	}
	if op.Kind == OpTrace {
		t.FetchStart = time.Now()
		n, ferr := fetchTrace(ctx, c, res.Job)
		t.FetchEnd = time.Now()
		if ferr == nil && n == 0 {
			ferr = fmt.Errorf("job %s: empty event log", res.Job)
		}
		t.Err = ferr
	}
	return t
}

// fetchTrace GETs a trace job's event log and returns its size in bytes.
// serve/client has no call for the route, so this is plain HTTP.
func fetchTrace(ctx context.Context, c *client.Client, job string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+job+"/trace", nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+c.Key)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, client.DecodeError(resp)
	}
	return io.Copy(io.Discard, resp.Body)
}

// checkOp applies the serve-mixed output checks to one finished operation.
func checkOp(r *Result, cs *clientState, t *OpRecord, op Op) {
	name := fmt.Sprintf("client %d op %d (%v)", t.Client, t.Index, op.Kind)
	if t.Err != nil {
		r.Fail("%s: %v", name, t.Err)
		return
	}
	switch op.Kind {
	case OpRepeat:
		if t.Cache != "hit" {
			r.Fail("%s: cache %q, want hit", name, t.Cache)
			return
		}
		r.Check(bytes.Equal(cs.payload[t.Index], cs.payload[op.Target]),
			"%s: cache-hit payload differs from its miss payload (op %d)", name, op.Target)
	case OpRetail:
		want := cs.lines[op.Target][op.Offset:]
		r.Check(equalLines(t.Lines, want), "%s: re-tail of op %d from line %d differs from the original stream",
			name, op.Target, op.Offset)
	default:
		// Submit already insisted on a result line and its payload.
		r.OK()
	}
}

func equalLines(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// payloadSummary is the part of a result payload the metrics read.
type payloadSummary struct {
	Outcomes []struct {
		DetectionPackets int
	} `json:"outcomes"`
	Summary struct {
		Runs int `json:"runs"`
		TP   int `json:"tp"`
		TN   int `json:"tn"`
	} `json:"summary"`
}

// RunServe is the serve-mixed workload: a blackdp-serve process with a
// durable store and two tenants, driven closed-loop by one serve/client
// client per tenant over the seeded request mix.
func RunServe(ctx context.Context, o Options) (*Result, error) {
	if o.ServeBin == "" {
		return nil, errors.New("serve-mixed needs the blackdp-serve binary (-serve-bin)")
	}
	r := NewResult(ServeMixed, o.Seed)
	store, err := os.MkdirTemp("", "perf-serve-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(store)

	var (
		setups []time.Duration
		srv    *Server
	)
	for i := 0; i < serveSpawns; i++ {
		s, took, err := StartServer(ctx, o.ServeBin, store)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if i < serveSpawns-1 {
			if err := s.Stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
			continue
		}
		srv = s
	}
	r.set("setup_s", stats.Median(seconds(setups)), len(setups))

	mix := DriveMix(ctx, srv, o.Seed, o.Duration, r, nil)
	rss, rssErr := PeakRSSMiB(srv.Pid())
	if err := srv.Stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	r.set("peak_rss_mb", rss, 1)
	FillServeMetrics(r, mix)
	return r, nil
}

// FillServeMetrics derives the end-to-end metrics and digests of a driven
// mix.
func FillServeMetrics(r *Result, mix MixStats) {
	var jobs, fresh, sharded []time.Duration
	reps := 0
	for _, t := range mix.Ops {
		if t.Err != nil || t.Kind == OpRetail {
			continue
		}
		lat := t.Latency()
		if t.Kind == OpTrace {
			lat = t.FetchStart.Sub(t.Start) // the job, not the log fetch
		}
		jobs = append(jobs, lat)
		switch t.Kind {
		case OpFresh:
			fresh = append(fresh, lat)
		case OpFreshSharded:
			sharded = append(sharded, lat)
		}
		if t.Kind == OpSweep {
			reps += SweepReps
		} else {
			reps++
		}
	}
	wall := mix.Wall.Seconds()
	r.set("jobs_per_s", float64(len(jobs))/wall, len(jobs))
	r.set("reps_per_s", float64(reps)/wall, reps)
	r.set("job_p50_ms", stats.Percentile(millis(jobs), 50), len(jobs))
	r.set("job_p95_ms", stats.Percentile(millis(jobs), 95), len(jobs))
	r.set("run_s", stats.Median(seconds(fresh)), len(fresh))
	r.set("run_sharded_s", stats.Median(seconds(sharded)), len(sharded))
	r.Notes["job_p95_tail_samples"] = stats.BeyondPercentile(len(jobs), 95)
	r.Notes["ops"] = len(mix.Ops)

	correct, runs := 0, 0
	var packets []int
	for ci, payloads := range mix.Payloads {
		for _, p := range payloads {
			var ps payloadSummary
			if err := json.Unmarshal(p, &ps); err != nil {
				r.Fail("client %d: unparsable result payload: %v", ci, err)
				continue
			}
			correct += ps.Summary.TP + ps.Summary.TN
			runs += ps.Summary.Runs
			for _, oc := range ps.Outcomes {
				if oc.DetectionPackets > 0 {
					packets = append(packets, oc.DetectionPackets)
				}
			}
		}
		r.Digests = append(r.Digests, Digest(payloads))
	}
	if runs > 0 {
		r.set("accuracy", float64(correct)/float64(runs), runs)
	}
	if len(packets) > 0 {
		r.set("detection_packets", meanInt(packets), len(packets))
	}
}
