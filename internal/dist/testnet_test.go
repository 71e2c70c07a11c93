package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
	"blackdp/internal/serve"
	"blackdp/serve/client"
)

// TestDistTestnetDifferential is the acceptance differential: 20 base
// seeds, each swept on fleets of 1, 2 and 4 workers, and every distributed
// result must be byte-identical (marshalled JSON, not just DeepEqual) to
// the single-node sweep.
func TestDistTestnetDifferential(t *testing.T) {
	const reps = 8
	ctx := context.Background()

	// Single-node baselines, one per seed.
	baselines := make([][]byte, 20)
	for seed := 0; seed < 20; seed++ {
		outs, err := scenario.RunSweep(ctx, fastCfg(int64(seed)), 0, reps, scenario.SweepOptions{Workers: 2}, nil)
		if err != nil {
			t.Fatalf("seed %d local: %v", seed, err)
		}
		b, err := json.Marshal(outs)
		if err != nil {
			t.Fatal(err)
		}
		baselines[seed] = b
	}

	for _, nw := range []int{1, 2, 4} {
		nw := nw
		t.Run(fmt.Sprintf("workers=%d", nw), func(t *testing.T) {
			f := newFleet(t, nw, Config{ChunkReps: 3})
			for seed := 0; seed < 20; seed++ {
				outs, err := f.coord.SweepRange(ctx, fastCfg(int64(seed)), 0, reps, nil)
				if err != nil {
					t.Fatalf("seed %d on %d workers: %v", seed, nw, err)
				}
				got, err := json.Marshal(outs)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(baselines[seed]) {
					t.Errorf("seed %d: %d-worker sweep is not byte-identical to single-node", seed, nw)
				}
			}
		})
	}
}

// TestDistTestnetWorkerKilledMidSweep kills one of three workers while it
// is streaming a chunk and requires the coordinator to reassign the lost
// work and still produce the single-node bytes, with the retry counted.
func TestDistTestnetWorkerKilledMidSweep(t *testing.T) {
	cfg := fastCfg(17)
	const reps = 24

	victim := mustServe(t, serve.Config{Workers: 4})
	firstChunk := make(chan struct{})
	var once sync.Once
	victimSrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			once.Do(func() { close(firstChunk) })
			// Hold the request long enough for the kill to land mid-stream.
			time.Sleep(100 * time.Millisecond)
		}
		victim.Handler().ServeHTTP(rw, r)
	}))

	urls := []string{victimSrv.URL}
	for i := 0; i < 2; i++ {
		w := mustServe(t, serve.Config{Workers: 4})
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	coord := New(Config{Workers: urls, ChunkReps: 3, HealthInterval: 50 * time.Millisecond, FleetGrace: 10 * time.Second})
	coord.Start()
	t.Cleanup(coord.Stop)

	// Kill the victim the moment it receives its first chunk: in-flight
	// streams tear, the health loop sees connection-refused forever after.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		select {
		case <-firstChunk:
		case <-time.After(30 * time.Second):
			return
		}
		victimSrv.CloseClientConnections()
		victimSrv.Close()
	}()

	outs, err := coord.SweepRange(context.Background(), cfg, 0, reps, nil)
	<-killDone
	if err != nil {
		t.Fatalf("sweep did not survive the worker kill: %v", err)
	}
	want, err := scenario.RunSweep(context.Background(), cfg, 0, reps, scenario.SweepOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotB, _ := json.Marshal(outs)
	wantB, _ := json.Marshal(want)
	if string(gotB) != string(wantB) {
		t.Error("post-kill sweep is not byte-identical to single-node")
	}
	if retried := coord.chunksRetried.Load(); retried < 1 {
		t.Errorf("chunks retried = %d, want >= 1 (the chunk lost with the worker)", retried)
	}
	if live := coord.LiveWorkers(); live > 2 {
		t.Errorf("live workers = %d after the kill, want <= 2", live)
	}
}

// TestDistCancelLeavesNoOrphans is the cancellation satellite: DELETE on a
// distributed job must abort the in-flight chunks on every worker — no
// replication pool keeps running, no goroutine is left behind.
func TestDistCancelLeavesNoOrphans(t *testing.T) {
	f := newFleet(t, 2, Config{ChunkReps: 4})
	s := mustServe(t, serve.Config{Distributor: f.coord, SweepWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	before := runtime.NumGoroutine()

	// A sweep big enough to still be in flight when the DELETE lands: the
	// full-size world takes seconds per replication.
	slow := scenario.Config{Seed: 1, Vehicles: 40, AttackerCluster: 2, DataPackets: 8,
		CryptoScheme: scenario.SchemePlaceholder}
	cfgJSON, err := json.Marshal(slow)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"kind":"sweep","reps":64,"config":%s}`, cfgJSON)

	type submitResult struct {
		lines []string
		err   error
	}
	submitted := make(chan submitResult, 1)
	jobID := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			submitted <- submitResult{err: err}
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
		var lines []string
		for sc.Scan() {
			line := sc.Text()
			lines = append(lines, line)
			var l struct {
				Type string `json:"type"`
				Job  string `json:"job"`
			}
			if json.Unmarshal([]byte(line), &l) == nil && l.Type == "accepted" {
				jobID <- l.Job
			}
		}
		submitted <- submitResult{lines: lines, err: sc.Err()}
	}()

	var id string
	select {
	case id = <-jobID:
	case <-time.After(10 * time.Second):
		t.Fatal("no accepted line within 10s")
	}

	// Wait until at least one worker is actually executing a chunk, so the
	// cancel provably interrupts remote work rather than an empty queue.
	waitUntil(t, 10*time.Second, "a worker to start a chunk", func() bool {
		for _, w := range f.workers {
			if w.Running() > 0 {
				return true
			}
		}
		return false
	})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d, want 202", resp.StatusCode)
	}

	// Every worker's replication pools must stop: Running() drains to zero.
	waitUntil(t, 20*time.Second, "workers to stop their chunks", func() bool {
		for _, w := range f.workers {
			if w.Running() > 0 {
				return false
			}
		}
		return true
	})

	res := <-submitted
	if res.err != nil {
		t.Fatalf("reading canceled job stream: %v", res.err)
	}
	tail := strings.Join(res.lines, "\n")
	if !strings.Contains(tail, "canceled") && !strings.Contains(tail, "error") {
		t.Errorf("canceled job stream carries no terminal marker:\n%s", tail)
	}

	// Goroutine count returns to the neighbourhood it started in — nothing
	// orphaned on the coordinator, the serve layer or the workers. Idle
	// keep-alive connections are not orphans: each holds a client read
	// loop, a write loop and a server conn goroutine until closed, so close
	// them — the default transport behind http.DefaultClient and the
	// coordinator's dispatch client — before counting.
	waitUntil(t, 20*time.Second, "goroutines to drain", func() bool {
		http.DefaultClient.CloseIdleConnections()
		f.coord.client.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= before+8
	})
}

// heldOpen is a serve.Distributor whose sweeps end only when their job is
// canceled, so a worker built on it holds every chunk job open until the
// job is DELETEd.
type heldOpen struct{}

func (heldOpen) SweepRange(ctx context.Context, _ scenario.Config, _, _ int, _ func(int, error)) ([]metrics.Outcome, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (heldOpen) Width() int { return 1 }

// TestCanceledSweepDeletesWorkerJobs cancels a fleet sweep mid-chunk. A
// worker job runs detached from the coordinator's connection, so the
// coordinator must DELETE it: the worker job ends canceled, not done. The
// worker's chunk is held open, so only that DELETE can end it.
func TestCanceledSweepDeletesWorkerJobs(t *testing.T) {
	f := newFleetOf(t, 1, Config{ChunkReps: 64}, serve.Config{Distributor: heldOpen{}})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.coord.SweepRange(ctx, scenario.DefaultConfig(), 0, 64, nil)
		errc <- err
	}()
	waitUntil(t, 10*time.Second, "the worker to start the chunk", func() bool { return f.workers[0].Running() > 0 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v", err)
	}
	cl := &client.Client{BaseURL: f.servers[0].URL}
	waitUntil(t, 20*time.Second, "the worker job to end canceled", func() bool {
		jobs, err := cl.List(context.Background())
		return err == nil && len(jobs) == 1 && jobs[0].Status == serve.StatusCanceled
	})
}

// holdWrites wraps a worker's handler so every job submission's response
// writes block until release is closed: the worker has admitted and started
// the job, but the coordinator has not yet read its accepted line.
type holdWrites struct {
	http.Handler
	release chan struct{}
}

func (h holdWrites) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		w = heldWriter{w, h.release}
	}
	h.Handler.ServeHTTP(w, r)
}

type heldWriter struct {
	http.ResponseWriter
	release chan struct{}
}

func (w heldWriter) Write(b []byte) (int, error) {
	<-w.release
	return w.ResponseWriter.Write(b)
}

func (w heldWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestCanceledBeforeAcceptedDeletesWorkerJob cancels a fleet sweep after
// the worker started its chunk job but before the coordinator read the
// job's ID from the accepted line. The coordinator must still learn the ID
// and DELETE the job, or the job holds its worker slot until it finishes.
func TestCanceledBeforeAcceptedDeletesWorkerJob(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	worker := mustServe(t, serve.Config{Distributor: heldOpen{}})
	srv := httptest.NewServer(holdWrites{worker.Handler(), release})
	t.Cleanup(srv.Close)
	t.Cleanup(unblock) // runs before srv.Close, which waits for held handlers
	coord := New(Config{Workers: []string{srv.URL}, ChunkReps: 64, HealthInterval: time.Second})
	coord.Start()
	t.Cleanup(coord.Stop)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := coord.SweepRange(ctx, scenario.DefaultConfig(), 0, 64, nil)
		errc <- err
	}()
	waitUntil(t, 10*time.Second, "the worker to start the chunk", func() bool { return worker.Running() > 0 })
	cancel()
	unblock()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v", err)
	}
	cl := &client.Client{BaseURL: srv.URL}
	waitUntil(t, 10*time.Second, "the worker job to end canceled", func() bool {
		jobs, err := cl.List(context.Background())
		return err == nil && len(jobs) == 1 && jobs[0].Status == serve.StatusCanceled
	})
}

// TestServeFallsBackToLocalWhenFleetDead: a configured-but-unreachable
// fleet must not take sweeps down with it — the serve layer catches
// ErrNoWorkers and executes locally, bytes unchanged.
func TestServeFallsBackToLocalWhenFleetDead(t *testing.T) {
	dead := New(Config{Workers: []string{"http://127.0.0.1:1"}, HealthInterval: 50 * time.Millisecond})
	t.Cleanup(dead.Stop)
	withFleet := mustServe(t, serve.Config{Distributor: dead})
	tsFleet := httptest.NewServer(withFleet.Handler())
	t.Cleanup(tsFleet.Close)
	plain := mustServe(t, serve.Config{})
	tsPlain := httptest.NewServer(plain.Handler())
	t.Cleanup(tsPlain.Close)

	cfgJSON, _ := json.Marshal(fastCfg(6))
	get := func(url string) string {
		res, err := (&client.Client{BaseURL: url}).Submit(context.Background(),
			client.Request{Kind: "sweep", Reps: 4, Workers: 1, Config: cfgJSON}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return string(res.Payload)
	}
	if viaFleet, viaLocal := get(tsFleet.URL), get(tsPlain.URL); viaFleet != viaLocal {
		t.Error("dead-fleet fallback payload differs from a plain local server")
	}
}

// TestServeDistributedPayloadMatchesLocal is the end-to-end byte identity:
// the NDJSON result payload of a sweep served through the fleet equals the
// payload of the same sweep on a fleetless server.
func TestServeDistributedPayloadMatchesLocal(t *testing.T) {
	f := newFleet(t, 3, Config{ChunkReps: 3})
	distServer := mustServe(t, serve.Config{Distributor: f.coord})
	tsDist := httptest.NewServer(distServer.Handler())
	t.Cleanup(tsDist.Close)
	localServer := mustServe(t, serve.Config{})
	tsLocal := httptest.NewServer(localServer.Handler())
	t.Cleanup(tsLocal.Close)

	for seed := 0; seed < 3; seed++ {
		cfgJSON, _ := json.Marshal(fastCfg(int64(seed)))
		body := fmt.Sprintf(`{"kind":"sweep","reps":10,"workers":1,"config":%s}`, cfgJSON)
		payload := func(url string) string {
			resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
			var last string
			for sc.Scan() {
				last = sc.Text()
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, last)
			}
			return last
		}
		if viaDist, viaLocal := payload(tsDist.URL), payload(tsLocal.URL); viaDist != viaLocal {
			t.Errorf("seed %d: distributed result payload is not byte-identical to local", seed)
		}
	}
}

// TestFleetSegmentsKeepWorkersBusy serves a sweep through a 3-worker fleet
// at the default chunk size and requires chunks to execute on at least two
// workers at once. The runner's journal segments are barriers, so a segment
// narrower than the fleet would dispatch one chunk at a time.
func TestFleetSegmentsKeepWorkersBusy(t *testing.T) {
	f := newFleet(t, 3, Config{ChunkReps: 8})
	waitUntil(t, 10*time.Second, "all three workers to go live", func() bool { return f.coord.LiveWorkers() == 3 })
	ts := httptest.NewServer(mustServe(t, serve.Config{Distributor: f.coord}).Handler())
	t.Cleanup(ts.Close)

	done := make(chan struct{})
	busiest := make(chan int)
	go func() {
		most := 0
		for {
			select {
			case <-done:
				busiest <- most
				return
			case <-time.After(time.Millisecond):
			}
			busy := 0
			for _, w := range f.workers {
				if w.Running() > 0 {
					busy++
				}
			}
			most = max(most, busy)
		}
	}()
	cfgJSON, _ := json.Marshal(fastCfg(4))
	_, err := (&client.Client{BaseURL: ts.URL}).Submit(context.Background(),
		client.Request{Kind: "sweep", Reps: 24, Config: cfgJSON}, nil)
	close(done)
	if most := <-busiest; err != nil || most < 2 {
		t.Errorf("sweep err %v; chunks executed on at most %d workers at once, want >= 2", err, most)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// mustServe builds a serve.Server, failing the test on a config error.
func mustServe(tb testing.TB, cfg serve.Config) *serve.Server {
	tb.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}
