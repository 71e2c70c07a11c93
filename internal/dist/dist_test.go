package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blackdp/internal/scenario"
	"blackdp/internal/serve"
	"blackdp/serve/client"
)

// fastCfg is the calibrated small world every fabric test sweeps: a few
// milliseconds per replication, so 20-seed differentials stay cheap even
// under -race.
func fastCfg(seed int64) scenario.Config {
	return scenario.Config{
		Seed:            seed,
		HighwayLengthM:  3000,
		Vehicles:        20,
		AttackerCluster: 2,
		DataPackets:     3,
		MaxSimTime:      30 * time.Second,
	}
}

// fleet is an in-process testnet: n plain serve.Servers behind httptest
// servers as workers, plus a coordinator pointed at them.
type fleet struct {
	coord   *Coordinator
	workers []*serve.Server
	servers []*httptest.Server
}

func newFleet(t testing.TB, n int, cfg Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		w := mustServe(t, serve.Config{Workers: 4})
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		f.workers = append(f.workers, w)
		f.servers = append(f.servers, srv)
		cfg.Workers = append(cfg.Workers, srv.URL)
	}
	if cfg.ChunkReps == 0 {
		cfg.ChunkReps = 3
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	if cfg.FleetGrace == 0 {
		cfg.FleetGrace = 10 * time.Second
	}
	f.coord = New(cfg)
	f.coord.Start()
	t.Cleanup(f.coord.Stop)
	return f
}

// submitChunk submits chunk [start, start+count) of cfg to a worker the
// way the coordinator does — a range sweep over the canonical config — and
// returns the result with the parsed stream lines.
func submitChunk(t *testing.T, url string, cfg scenario.Config, start, count int) (*client.Result, []client.Line) {
	t.Helper()
	canon, err := scenario.Canonical(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lines []client.Line
	res, err := (&client.Client{BaseURL: url}).Submit(context.Background(),
		client.Request{Kind: "sweep", Config: canon, Start: start, Reps: count}, func(raw []byte) {
			var l client.Line
			if json.Unmarshal(raw, &l) == nil && l.Type != "" {
				lines = append(lines, l)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	return res, lines
}

func TestWorkerExecutesChunkAndCachesIt(t *testing.T) {
	ts := httptest.NewServer(mustServe(t, serve.Config{}).Handler())
	t.Cleanup(ts.Close)

	// The worker runs global replications [2,5): byte-for-byte what a local
	// range run produces, and the progress lines carry global indexes.
	res, lines := submitChunk(t, ts.URL, fastCfg(1), 2, 3)
	outs, err := decodeChunk(res.Payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunSweepRange(context.Background(), fastCfg(1), 2, 3, scenario.SweepOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, want) {
		t.Error("worker chunk outcomes diverge from local RunSweepRange")
	}
	for i, rep := range []int{2, 3, 4} {
		if l := lines[1+i]; l.Type != "progress" || l.Rep != rep {
			t.Errorf("stream line %d = %+v, want progress for global rep %d", 1+i, l, rep)
		}
	}
	// Same sub-job again: answered from the result cache, payload verbatim.
	again, _ := submitChunk(t, ts.URL, fastCfg(1), 2, 3)
	if res.Cache != "miss" || again.Cache != "hit" || !bytes.Equal(res.Payload, again.Payload) {
		t.Errorf("chunk caches %q then %q, payloads equal %v; want miss, hit, true",
			res.Cache, again.Cache, bytes.Equal(res.Payload, again.Payload))
	}
}

func TestChunkKeyIsCanonical(t *testing.T) {
	// The coordinator ships Canonical(cfg) and the worker keys what it
	// decodes: that must be the range sweep key of cfg itself, or caches
	// never share.
	ts := httptest.NewServer(mustServe(t, serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	cfg := fastCfg(9)
	fp, err := scenario.Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, lines := submitChunk(t, ts.URL, cfg, 8, 4); lines[0].Key != "sweep/8+4/"+fp {
		t.Errorf("worker keys chunk [8,12) as %q, want sweep/8+4/%s", lines[0].Key, fp)
	}
	if _, lines := submitChunk(t, ts.URL, cfg, 0, 4); lines[0].Key != "sweep/4/"+fp {
		t.Errorf("a chunk from 0 is an ordinary sweep: key %q, want sweep/4/%s", lines[0].Key, fp)
	}
}

func TestCoordinatorSweepMatchesLocal(t *testing.T) {
	f := newFleet(t, 2, Config{ChunkReps: 3})
	cfg := fastCfg(5)
	const reps = 8

	var mu []int
	var muErr int
	outs, err := f.coord.Sweep(context.Background(), cfg, reps, func(rep int, err error) {
		mu = append(mu, rep)
		if err != nil {
			muErr++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunSweep(context.Background(), cfg, reps, scenario.SweepOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, want) {
		t.Error("distributed outcomes diverge from single-node RunSweep")
	}
	if len(mu) != reps || muErr != 0 {
		t.Errorf("onRep fired %d times (%d errors), want %d/0: %v", len(mu), muErr, reps, mu)
	}
	if got := f.coord.remoteReps.Load(); got != reps {
		t.Errorf("remote reps counter = %d, want %d", got, reps)
	}
}

// TestCoordinatorSharesChunksAcrossJobs proves the cross-job cache: a
// second, longer sweep of the same config reuses the first sweep's chunks
// instead of recomputing them.
func TestCoordinatorSharesChunksAcrossJobs(t *testing.T) {
	f := newFleet(t, 2, Config{ChunkReps: 4})
	cfg := fastCfg(11)
	ctx := context.Background()

	first, err := f.coord.Sweep(ctx, cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.coord.Sweep(ctx, cfg, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second[:8], first) {
		t.Error("overlapping sweeps disagree on the shared prefix")
	}
	if shared := f.coord.cacheShared.Load(); shared < 2 {
		t.Errorf("chunk cache shared %d chunks, want >= 2 (the first sweep's two chunks)", shared)
	}
	want, err := scenario.RunSweep(ctx, cfg, 16, scenario.SweepOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Error("cache-merged sweep diverges from single-node RunSweep")
	}
}

// TestCoordinatorHonorsBackpressure fronts a worker with a handler that
// answers 429 (typed envelope, retry hint) twice before serving, and
// requires the retry loop to absorb the refusals without failing the sweep
// or burning the hard-failure budget.
func TestCoordinatorHonorsBackpressure(t *testing.T) {
	w := mustServe(t, serve.Config{Workers: 4})
	var refusals atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && refusals.Add(1) <= 2 {
			// retry_after_seconds deliberately 0: the coordinator must fall
			// back to its own pacing rather than treating 0 as "never".
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(rw, `{"code":"chunk_slots_full","message":"busy","retry_after_seconds":0}`)
			return
		}
		w.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(proxy.Close)

	coord := New(Config{Workers: []string{proxy.URL}, ChunkReps: 4, HealthInterval: 50 * time.Millisecond})
	t.Cleanup(coord.Stop)
	cfg := fastCfg(3)
	outs, err := coord.Sweep(context.Background(), cfg, 4, nil)
	if err != nil {
		t.Fatalf("sweep failed despite backpressure being retryable: %v", err)
	}
	want, _ := scenario.RunSweep(context.Background(), cfg, 4, scenario.SweepOptions{Workers: 1}, nil)
	if !reflect.DeepEqual(outs, want) {
		t.Error("outcomes diverge after backpressure retries")
	}
	if got := coord.chunksRetried.Load(); got < 2 {
		t.Errorf("chunks retried = %d, want >= 2 (the two 429s)", got)
	}
}

// TestCoordinatorSurfacesWorkerEnvelope pins the other half of the
// satellite: when the backpressure budget runs out, the worker's typed
// envelope — code and retry hint included — appears in the sweep error
// instead of being swallowed.
func TestCoordinatorSurfacesWorkerEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/healthz") {
			fmt.Fprint(rw, `{"status":"ok"}`)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(rw, `{"code":"chunk_slots_full","message":"every chunk slot is busy","retry_after_seconds":0}`)
	}))
	t.Cleanup(srv.Close)

	coord := New(Config{Workers: []string{srv.URL}, ChunkReps: 4, BackpressureRetries: 1, HealthInterval: 50 * time.Millisecond})
	t.Cleanup(coord.Stop)
	_, err := coord.Sweep(context.Background(), fastCfg(1), 4, nil)
	if err == nil {
		t.Fatal("sweep succeeded against an always-429 worker")
	}
	var we *client.APIError
	if !errors.As(err, &we) {
		t.Fatalf("error does not carry the worker envelope: %v", err)
	}
	if we.Code != "chunk_slots_full" || we.Status != http.StatusTooManyRequests {
		t.Errorf("surfaced envelope = %+v", we)
	}
	if !strings.Contains(err.Error(), "chunk_slots_full") {
		t.Errorf("error text hides the envelope code: %v", err)
	}
}

func TestCoordinatorNoWorkersIsTyped(t *testing.T) {
	// Empty fleet.
	empty := New(Config{})
	t.Cleanup(empty.Stop)
	if _, err := empty.Sweep(context.Background(), fastCfg(1), 4, nil); !errors.Is(err, serve.ErrNoWorkers) {
		t.Errorf("empty fleet error = %v, want ErrNoWorkers", err)
	}
	// Configured but unreachable fleet: the on-demand probe fails and the
	// typed sentinel tells the serve layer to fall back to local execution.
	dead := New(Config{Workers: []string{"http://127.0.0.1:1"}, HealthInterval: 50 * time.Millisecond})
	t.Cleanup(dead.Stop)
	if _, err := dead.Sweep(context.Background(), fastCfg(1), 4, nil); !errors.Is(err, serve.ErrNoWorkers) {
		t.Errorf("dead fleet error = %v, want ErrNoWorkers", err)
	}
}

// TestServeExposesFabricMetrics wires a coordinator into a serve.Server and
// requires the fabric gauges to appear on the service /metrics page.
func TestServeExposesFabricMetrics(t *testing.T) {
	f := newFleet(t, 2, Config{})
	s := mustServe(t, serve.Config{Distributor: f.coord})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Give the health loop a beat so the live gauge is 2, then scrape.
	deadline := time.Now().Add(2 * time.Second)
	for f.coord.LiveWorkers() != 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"blackdp_dist_workers_known 2",
		"blackdp_dist_workers_live 2",
		"blackdp_dist_chunks_dispatched_total",
		"blackdp_dist_chunks_retried_total",
		"blackdp_dist_chunk_cache_shared_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("service metrics missing %q", want)
		}
	}
}
