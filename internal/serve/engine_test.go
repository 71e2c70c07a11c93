package serve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blackdp/internal/scenario"
)

func acceptedJob(t *testing.T, line string) string {
	t.Helper()
	var l streamLine
	if err := json.Unmarshal([]byte(line), &l); err != nil || l.Type != "accepted" {
		t.Fatalf("not an accepted line: %q (%v)", line, err)
	}
	return l.Job
}

// postAsync submits body and streams the response in the background: the
// first channel yields the accepted line, the second every line once the
// stream ends.
func postAsync(base, body string) (<-chan string, <-chan []string) {
	accepted, done := make(chan string, 1), make(chan []string, 1)
	go func() {
		var lines []string
		defer func() { done <- lines }()
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			close(accepted)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
		for sc.Scan() {
			if lines = append(lines, sc.Text()); len(lines) == 1 {
				accepted <- sc.Text()
			}
		}
	}()
	return accepted, done
}

// TestRunPayloadMatchesInMemoryPath pins a run's payload on a store-less
// server to the bytes of the request-bound path every run took before all
// jobs moved onto the runner; the digests were taken from that path.
func TestRunPayloadMatchesInMemoryPath(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Config{}).Handler())
	defer ts.Close()
	for seed, digest := range map[int64]string{
		7:  "d11abcb60f45e8e7c1653b4bfb40d198a619ea811bd0c312c21a92a5980e67f5",
		42: "3180c492708019c7a718a61d33701523be50d1ec8ec4da6fee4e158b3827a7f6",
	} {
		_, _, lines := post(t, ts, runBody(seed))
		if sum := sha256.Sum256([]byte(lines[len(lines)-1])); len(lines) != 4 || hex.EncodeToString(sum[:]) != digest {
			t.Errorf("seed %d: run stream %q, want 4 lines ending in a payload with sha256 %s", seed, lines, digest)
		}
	}
}

// TestStreamOffsetsWorkWithoutStore re-tails a run, a trace run and a sweep
// on a store-less server at every offset: each tail is exactly the suffix
// of the job's in-memory journal.
func TestStreamOffsetsWorkWithoutStore(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Config{}).Handler())
	defer ts.Close()
	for _, body := range []string{
		runBody(13),
		fmt.Sprintf(`{"kind":"run","trace":true,"config":%s}`, tinyWorld(14)),
		sweepBody(15, 4),
	} {
		_, _, lines := post(t, ts, body)
		id := acceptedJob(t, lines[0])
		for offset := 0; offset <= len(lines); offset++ {
			if tail := tailStream(t, ts.URL, id, offset); strings.Join(tail, "\n") != strings.Join(lines[offset:], "\n") {
				t.Fatalf("%s offset %d: tail %q, want %q", body, offset, tail, lines[offset:])
			}
		}
	}
}

// TestDisconnectedClientJobCompletes drops the submitting connection right
// after the accepted line; the job still finishes with its full journal.
func TestDisconnectedClientJobCompletes(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(sweepBody(16, 12)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Scan()
	id := acceptedJob(t, sc.Text())
	cancel()
	resp.Body.Close()

	if full := tailStream(t, ts.URL, id, 0); len(full) != 15 || s.lookup(id).view(false).Status != StatusDone {
		t.Fatalf("abandoned job: status %q, %d journal lines, want done and 15",
			s.lookup(id).view(false).Status, len(full))
	}
}

// TestDrainLetsInFlightJobFinish drains a store-less server mid-sweep: the
// job completes within the grace period and its client reads every line.
func TestDrainLetsInFlightJobFinish(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	accepted, done := postAsync(ts.URL, sweepBody(17, 16))
	<-accepted
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if lines := <-done; len(lines) != 19 || !strings.Contains(lines[18], `"outcomes"`) {
		t.Fatalf("drained job streamed %d lines, want 19 ending in the payload", len(lines))
	}
}

// TestDrainDeadlineInterruptsJob drains with a deadline shorter than the
// job: at the deadline the job is interrupted, and its stream ends with a
// terminal error line instead of hanging.
func TestDrainDeadlineInterruptsJob(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	accepted, done := postAsync(ts.URL, sweepBody(18, 500))
	id := acceptedJob(t, <-accepted)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _ = s.Drain(ctx) // the deadline passes by design
	lines := <-done
	if !strings.Contains(lines[len(lines)-1], errShutdown.Error()) || s.lookup(id).view(false).Status != StatusCanceled {
		t.Fatalf("interrupted job: status %q, stream ends %q", s.lookup(id).view(false).Status, lines[len(lines)-1:])
	}
}

// TestRangeSweepsConcatenate splits one sweep into [0,k) and [k,n): the
// outcomes concatenate byte-identically to the n-replication sweep's.
func TestRangeSweepsConcatenate(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Config{}).Handler())
	defer ts.Close()

	const n, k = 10, 4
	sweep := func(start, reps int) []json.RawMessage {
		code, _, lines := post(t, ts, fmt.Sprintf(`{"kind":"sweep","start":%d,"reps":%d,"config":%s}`, start, reps, tinyWorld(19)))
		var p struct {
			Outcomes []json.RawMessage `json:"outcomes"`
		}
		if code != http.StatusOK || json.Unmarshal([]byte(lines[len(lines)-1]), &p) != nil {
			t.Fatalf("sweep [%d,%d): status %d", start, start+reps, code)
		}
		return p.Outcomes
	}
	joined, _ := json.Marshal(append(sweep(0, k), sweep(k, n-k)...))
	if want, _ := json.Marshal(sweep(0, n)); string(joined) != string(want) {
		t.Errorf("[0,%d) + [%d,%d) is not byte-identical to the %d-replication sweep", k, k, n, n)
	}
}

// FuzzParseRequest: the request parser never panics, and every accepted
// spec is in bounds — a run is one replication from 0, a sweep 1..max
// replications from a non-negative start — and re-parses to its key.
func FuzzParseRequest(f *testing.F) {
	const maxReps = 50
	for _, seed := range []string{
		`{"kind":"run","config":{"Seed":3}}`,
		`{"kind":"run","trace":true,"reps":9}`,
		`{"kind":"sweep","reps":8,"workers":2,"config":{"Seed":1,"Vehicles":30}}`,
		`{"kind":"sweep","start":16,"reps":8,"config":{}}`,
		`{"kind":"sweep","start":-1,"reps":8}`,
		`{"kind":"run","start":2}`,
		`{"kind":"sweep","reps":51}`,
		`{"kind":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := parseRequest(body, maxReps)
		if err != nil {
			return
		}
		if ok := spec.kind == "run" && spec.reps == 1 && spec.start == 0 ||
			spec.kind == "sweep" && spec.reps >= 1 && spec.reps <= maxReps && spec.start >= 0 && !spec.trace; !ok {
			t.Fatalf("accepted an out-of-bounds spec: %+v", spec)
		}
		again, _ := json.Marshal(Request{Kind: spec.kind, Config: spec.rawCfg, Start: spec.start,
			Reps: spec.reps, Workers: spec.pool, Trace: spec.trace})
		if spec2, err := parseRequest(again, maxReps); err != nil || spec2.key != spec.key {
			t.Fatalf("re-parsing %s: key %q -> %q (err %v)", again, spec.key, spec2.key, err)
		}
	})
}

// gatedStore holds a job's outcome append until release closes, so a test
// can act before the job's terminal lines are journaled.
type gatedStore struct {
	nopStore
	arrived, release chan struct{}
}

func (g gatedStore) AppendOutcomes(string, [][]byte) error {
	close(g.arrived)
	<-g.release
	return nil
}

// TestJobFinishedWhenTerminalLineArrives: a client that returns as soon as
// a job's payload line arrives must read the job as done. The test holds
// the locks of a run and of a cache hit waiting on it while both journal
// their terminal lines, so neither job can finish meanwhile: neither
// payload line may reach its stream until the locks are released.
func TestJobFinishedWhenTerminalLineArrives(t *testing.T) {
	g := gatedStore{arrived: make(chan struct{}), release: make(chan struct{})}
	s := mustNew(t, Config{Store: g})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	accepted, done := postAsync(ts.URL, runBody(700))
	run := s.lookup(acceptedJob(t, <-accepted))
	<-g.arrived
	hitAccepted, hitDone := postAsync(ts.URL, runBody(700))
	hit := s.lookup(acceptedJob(t, <-hitAccepted))

	// A run streams accepted, progress, result and payload lines; a hit
	// has no progress line.
	complete := func() bool { return run.stream.count() == 4 || hit.stream.count() == 3 }
	run.mu.Lock()
	hit.mu.Lock()
	close(g.release)
	deadline := time.Now().Add(200 * time.Millisecond)
	for !complete() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	early := complete()
	hit.mu.Unlock()
	run.mu.Unlock()
	if early {
		t.Fatal("a payload line reached its stream before the job finished")
	}
	if lines, hitLines := <-done, <-hitDone; len(lines) != 4 || len(hitLines) != 3 {
		t.Fatalf("run and hit streamed %d and %d lines, want 4 and 3", len(lines), len(hitLines))
	}
	for _, job := range []*Job{run, hit} {
		if v := job.view(false); v.Status != StatusDone {
			t.Errorf("%s: status %q after its stream ended, want done", job.ID, v.Status)
		}
	}
}

// TestPanickingRunFailsAlone makes one run job's world panic while it is
// built: that job fails with the panic value in its error line, and the
// server keeps answering health checks and runs valid jobs afterwards.
func TestPanickingRunFailsAlone(t *testing.T) {
	defer func(b func(scenario.Config) (*scenario.World, error)) { buildWorld = b }(buildWorld)
	buildWorld = func(scenario.Config) (*scenario.World, error) { panic("injected build failure") }
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _, lines := post(t, ts, runBody(21))
	var last streamLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if last.Type != "error" || !strings.Contains(last.Error, "injected build failure") {
		t.Fatalf("panicking run ended with %q, want an error line carrying the panic value", lines[len(lines)-1])
	}
	if st := s.lookup(acceptedJob(t, lines[0])).view(false).Status; st != StatusFailed {
		t.Errorf("panicking run: status %q, want %q", st, StatusFailed)
	}

	buildWorld = scenario.Build
	if code, body := get(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after a panicking run: %d %s", code, body)
	}
	code, _, lines := post(t, ts, runBody(22))
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &last); err != nil || code != http.StatusOK || last.Type != "result" {
		t.Fatalf("valid run after a panicking one: status %d, stream %q", code, lines)
	}
}
