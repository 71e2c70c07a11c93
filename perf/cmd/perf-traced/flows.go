package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"blackdp"
	"blackdp/internal/scenario"
	"blackdp/perf/span"
	"blackdp/perf/stats"
	"blackdp/perf/workload"
)

var bgctx = context.Background()

// traced is one traced workload run: its checks and digests (in r), its
// per-layer metrics, and the ledgers and span tables for the record.
type traced struct {
	r      *workload.Result
	layers *layerSet
	phases []phase
}

// phase is one traced stretch of a run: its ledger and its span table.
type phase struct {
	name   string
	ledger span.Ledger
	spans  string
}

func (t *traced) phase(name string, l span.Ledger, tr *span.Tracer) {
	t.phases = append(t.phases, phase{name: name, ledger: l, spans: spanTable(tr)})
}

func newTraced(name string, seed int64) *traced {
	return &traced{r: workload.NewResult(name, seed), layers: newLayerSet()}
}

// overhead records traced minus untraced wall-clock of the same work.
func (t *traced) overhead(tracedWall, untracedWall time.Duration) {
	t.r.Notes["trace_overhead_s"] = (tracedWall - untracedWall).Seconds()
	t.r.Notes["trace_overhead_share"] = ratio(float64(tracedWall-untracedWall), float64(untracedWall))
}

const (
	reasonNoServer = "no blackdp-serve process in this workload"
	reasonNoSweep  = "this workload runs single worlds, not an exp replication sweep"
	reasonNoCrypto = "the workload runs the placeholder scheme; the scheme ablation runs on paper-fig4"
)

var serveLayer = []string{"serve.accept_ms_p50", "serve.queue_ms_p50", "serve.exec_ms_p50", "serve.hit_ms_p50",
	"serve.retail_ms_p50", "serve.trace_fetch_ms_p50", "serve.cache_hit_ratio", "serve.rejected",
	"serve.journal_bytes_per_rep", "serve.payload_bytes_p50"}

// traceMetro times the metro world untraced, then traced on the serial
// scheduler, then counts the sharded world (its receivers run on
// concurrent strip shards, so it gets counters, not spans).
func traceMetro(o workload.Options) (*traced, error) {
	t := newTraced(workload.MetroGrid, o.Seed)
	rs := startRuntimeSampler()
	cfg := workload.MetroConfig(o.Seed, 1)

	var refOut blackdp.Outcome
	var refRun time.Duration
	mallocs, byts, err := allocsOf(func() error {
		w, err := blackdp.Build(cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		refOut, err = w.RunContext(bgctx)
		refRun = time.Since(t0)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("untraced metro world: %w", err)
	}
	fmt.Fprintf(o.Log, "metro-grid: untraced serial run %v\n", refRun.Round(time.Millisecond))
	runtime.GC()

	p := newProbe(128, 60_000)
	t0 := time.Now()
	out, err := p.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("traced metro world: %w", err)
	}
	wall := time.Since(t0)
	t.r.Check(workload.Digest(out) == workload.Digest(refOut), "traced serial outcome differs from the untraced one")
	t.r.Digests = append(t.r.Digests, workload.Digest(out))
	t.overhead(p.tr.Get("scenario.run").Total, refRun)
	t.phase("serial world", simLedger(p, wall), p.tr)
	runtime.GC()

	sw, err := blackdp.Build(workload.MetroConfig(o.Seed, workload.ShardWorkers()))
	if err != nil {
		return nil, fmt.Errorf("sharded metro world: %w", err)
	}
	so, err := sw.RunContext(bgctx)
	if err != nil {
		return nil, fmt.Errorf("sharded metro world: %w", err)
	}
	workload.CheckMetro(t.r, "sharded", sw, so)
	t.r.Digests = append(t.r.Digests, workload.Digest(so))
	st := sw.Env.Medium.Stats()
	t.layers.set("sharded.radio.sent_frames", "count", float64(st.SentFrames.Frames), 1)
	t.layers.set("sharded.radio.delivered_frames", "count", float64(st.DeliveredFrames.Frames), 1)
	t.layers.set("sharded.backbone.delivered_frames", "count", float64(sw.Env.Backbone.Stats().DeliveredFrames.Frames), 1)

	t.layers.fromProbe(p, untraced{reps: 1, runWall: refRun, mallocs: mallocs, byts: byts})
	t.layers.fromRuntime(rs)
	t.layers.na(reasonNoSweep, "exp.speedup")
	t.layers.na(reasonNoCrypto, "pki.ecdsa_share", "pki.session_share")
	t.layers.na(reasonNoServer, serveLayer...)
	return t, nil
}

// traceFig4 times pass 0 of the grid untraced at one and at nproc sweep
// workers (exp.speedup), runs the same worlds one by one untraced and then
// under the probe and checks their Figure 4 points reproduce Fig4's, and
// prices the crypto schemes on the same grid.
func traceFig4(o workload.Options) (*traced, error) {
	t := newTraced(workload.PaperFig4, o.Seed)
	rs := startRuntimeSampler()

	t0 := time.Now()
	serial, err := workload.RunFig4Pass(bgctx, o.Seed, 0, blackdp.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	u1 := time.Since(t0)
	t0 = time.Now()
	parallel, err := workload.RunFig4Pass(bgctx, o.Seed, 0, blackdp.WithWorkers(workload.Procs()))
	if err != nil {
		return nil, err
	}
	un := time.Since(t0)
	t.r.Check(parallel.Digest() == serial.Digest(), "grid digest depends on the worker count")
	t.layers.set("exp.speedup", "ratio", u1.Seconds()/un.Seconds(), 2)
	fmt.Fprintf(o.Log, "paper-fig4: grid %v at 1 worker, %v at %d\n", u1.Round(time.Millisecond), un.Round(time.Millisecond), workload.Procs())

	// Pass 0's grid world by world, as Fig4 builds it: untraced for the
	// reference, then under the probe.
	cfgs := gridConfigs(workload.Fig4Base(o.Seed, 0))
	var refOuts []blackdp.Outcome
	var refBuild, refRun time.Duration
	mallocs, byts, err := allocsOf(func() error {
		var err error
		refOuts, refBuild, refRun, err = runWorlds(cfgs)
		return err
	})
	if err != nil {
		return nil, err
	}
	p := newProbe(64, 1000)
	t0 = time.Now()
	var outs []blackdp.Outcome
	for _, cfg := range cfgs {
		out, err := p.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("traced grid world: %w", err)
		}
		outs = append(outs, out)
	}
	wall := time.Since(t0)
	t.r.Check(workload.Digest(outs) == workload.Digest(refOuts), "traced grid outcomes differ from the untraced worlds'")
	n := len(cfgs) / 2
	tracedPass := workload.Fig4Pass{Single: gridPoints(blackdp.SingleBlackHole, outs[:n]), Cooperative: gridPoints(blackdp.CooperativeBlackHole, outs[n:]), Fig5: serial.Fig5}
	t.r.Check(tracedPass.Digest() == serial.Digest(), "world-by-world grid digest differs from Fig4's")
	t.overhead(p.tr.Get("scenario.build").Total+p.tr.Get("scenario.run").Total, refBuild+refRun)
	t.phase("grid, one world at a time", simLedger(p, wall), p.tr)

	pass1, err := workload.RunFig4Pass(bgctx, o.Seed, 1, blackdp.WithWorkers(workload.Procs()))
	if err != nil {
		return nil, err
	}
	t.r.Digests = append(t.r.Digests, serial.Digest(), pass1.Digest())

	// Scheme ablation on the same grid, one worker, as u1.
	schemeWall := map[string]time.Duration{}
	for _, scheme := range []string{blackdp.SchemePlaceholder, blackdp.SchemeSession} {
		t0 := time.Now()
		pass, err := workload.RunFig4Pass(bgctx, o.Seed, 0, blackdp.WithWorkers(1), blackdp.WithCryptoScheme(scheme))
		if err != nil {
			return nil, err
		}
		schemeWall[scheme] = time.Since(t0)
		if scheme == blackdp.SchemeSession {
			t.r.Check(pass.Digest() == serial.Digest(), "session-token grid differs from the ECDSA grid")
		}
	}
	t.layers.set("pki.ecdsa_share", "fraction", 1-schemeWall[blackdp.SchemePlaceholder].Seconds()/u1.Seconds(), 2)
	t.layers.set("pki.session_share", "fraction", 1-schemeWall[blackdp.SchemePlaceholder].Seconds()/schemeWall[blackdp.SchemeSession].Seconds(), 2)

	t.layers.fromProbe(p, untraced{reps: len(cfgs), runWall: refRun, mallocs: mallocs, byts: byts})
	t.layers.fromRuntime(rs)
	t.layers.na(reasonNoServer, serveLayer...)
	return t, nil
}

// gridConfigs lists the worlds of one Figure 4 grid in the order Fig4 runs
// them: single black hole then cooperative, each cluster's replications in
// turn, seeded as the sweep seeds them.
func gridConfigs(base blackdp.Config) []blackdp.Config {
	var cfgs []blackdp.Config
	for _, kind := range []blackdp.AttackKind{blackdp.SingleBlackHole, blackdp.CooperativeBlackHole} {
		for c := 1; c <= 10; c++ {
			for rep := 0; rep < workload.Fig4Reps; rep++ {
				cfg := base
				cfg.Attack = kind
				cfg.AttackerCluster = c
				cfg.EvasiveClusters = []int{8, 9, 10}
				cfg.Seed = base.Seed + int64(rep)*7919
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// gridPoints folds one attack kind's outcomes, in gridConfigs order, into
// Figure 4 points.
func gridPoints(kind blackdp.AttackKind, outs []blackdp.Outcome) []blackdp.Fig4Point {
	var points []blackdp.Fig4Point
	for c := 1; c <= 10; c++ {
		batch := outs[(c-1)*workload.Fig4Reps : c*workload.Fig4Reps]
		points = append(points, blackdp.Fig4Point{Cluster: c, Kind: kind, Summary: blackdp.Aggregate(batch)})
	}
	return points
}

// runWorlds builds and runs cfgs one at a time, untraced, returning the
// outcomes and the summed build and run wall-clock.
func runWorlds(cfgs []blackdp.Config) (outs []blackdp.Outcome, build, run time.Duration, err error) {
	for _, cfg := range cfgs {
		t0 := time.Now()
		w, err := blackdp.Build(cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		out, err := w.RunContext(bgctx)
		if err != nil {
			return nil, 0, 0, err
		}
		build += t1.Sub(t0)
		run += time.Since(t1)
		outs = append(outs, out)
	}
	return outs, build, run, nil
}

// serveSpans turns the client-side line arrival times of the traced mix
// into serve.* spans and per-client ledgers.
type serveSpans struct {
	tr                                                  *span.Tracer
	hJob, hAccept, hQueue, hExec, hHit, hRetail, hFetch span.Handle
	accept, queue, exec, hit, retail, fetch             []float64 // ms
	payloadBytes                                        []float64
	perClient                                           map[int]map[string]time.Duration
	fresh                                               map[[2]int][]byte // fixed-prefix fresh payloads
}

func newServeSpans() *serveSpans {
	tr := span.New()
	return &serveSpans{tr: tr, hJob: tr.Name("serve.job"), hAccept: tr.Name("serve.accept"),
		hQueue: tr.Name("serve.queue"), hExec: tr.Name("serve.exec"), hHit: tr.Name("serve.hit"),
		hRetail: tr.Name("serve.retail"), hFetch: tr.Name("serve.trace_fetch"),
		perClient: map[int]map[string]time.Duration{}, fresh: map[[2]int][]byte{}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *serveSpans) observe(t *workload.OpRecord) {
	led := s.perClient[t.Client]
	if led == nil {
		led = map[string]time.Duration{}
		s.perClient[t.Client] = led
	}
	if t.Err != nil || len(t.Lines) == 0 {
		return
	}
	if t.Kind == workload.OpRetail {
		d := t.End.Sub(t.Start)
		s.tr.Record(s.hRetail, d, 0)
		s.retail = append(s.retail, ms(d))
		led["serve.retail"] += d
		return
	}
	accepted := t.At[0]
	resultAt := t.End
	resultIdx := -1
	for i, raw := range t.Lines {
		if bytes.Contains(raw, []byte(`"type":"result"`)) {
			resultIdx = i
			resultAt = t.At[i]
			break
		}
	}
	// The result line of an in-memory job carries the server's execution
	// time (whole milliseconds, truncated), which splits queueing from
	// execution. A durable sweep's stream exposes no execution start, so
	// its whole accepted-to-result interval counts as execution.
	execStart := resultAt.Add(-time.Duration(t.ElapsedMS) * time.Millisecond)
	if t.Kind == workload.OpSweep {
		execStart = accepted
	}
	if execStart.Before(accepted) {
		execStart = accepted
	}
	a, q, e := accepted.Sub(t.Start), execStart.Sub(accepted), resultAt.Sub(execStart)
	end := t.End
	if t.Kind == workload.OpTrace {
		end = t.FetchStart
	}
	job := end.Sub(t.Start)
	s.tr.Record(s.hAccept, a, 0)
	s.tr.Record(s.hQueue, q, 0)
	s.tr.Record(s.hExec, e, 0)
	s.tr.Record(s.hJob, job, a+q+e)
	s.accept = append(s.accept, ms(a))
	s.queue = append(s.queue, ms(q))
	s.exec = append(s.exec, ms(e))
	led["serve.accept"] += a
	led["serve.queue"] += q
	led["serve.exec"] += e
	led["serve.result read"] += job - (a + q + e)
	if resultIdx >= 0 && resultIdx+1 < len(t.Lines) {
		s.payloadBytes = append(s.payloadBytes, float64(len(t.Lines[resultIdx+1])))
	}
	switch t.Kind {
	case workload.OpRepeat:
		s.tr.Record(s.hHit, job, 0)
		s.hit = append(s.hit, ms(job))
	case workload.OpTrace:
		d := t.FetchEnd.Sub(t.FetchStart)
		s.tr.Record(s.hFetch, d, 0)
		s.fetch = append(s.fetch, ms(d))
		led["serve.trace_fetch"] += d
	case workload.OpFresh:
		if t.Index < workload.ServeFixedOps {
			s.fresh[[2]int{t.Client, t.Index}] = t.Lines[len(t.Lines)-1]
		}
	}
}

// ledger averages the clients' ledgers: each client's operations tile its
// own wall-clock, and what is left is client-side work between operations.
func (s *serveSpans) ledger(wall time.Duration) span.Ledger {
	layers := []string{"serve.accept", "serve.queue", "serve.exec", "serve.result read", "serve.retail", "serve.trace_fetch"}
	var entries []span.Entry
	n := time.Duration(len(workload.Tenants))
	for _, l := range layers {
		var sum time.Duration
		for _, led := range s.perClient {
			sum += led[l]
		}
		entries = append(entries, span.Entry{Layer: l, Self: sum / n})
	}
	return span.NewLedger(wall, entries...)
}

// scrapeSeries reads the named series from a Prometheus text exposition.
// A series the server no longer exports is absent, not an error.
func scrapeSeries(url string, names ...string) (map[string]float64, error) {
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		for _, n := range names {
			if f[0] == n {
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					out[n] = v
				}
			}
		}
	}
	return out, nil
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// driveOnce starts a server on a fresh store, drives the mix, and stops it.
// inspect, when non-nil, runs against the live server after the mix.
func driveOnce(o workload.Options, r *workload.Result, observe func(*workload.OpRecord), inspect func(*workload.Server) error) (workload.MixStats, error) {
	store, err := os.MkdirTemp("", "perf-traced-store-")
	if err != nil {
		return workload.MixStats{}, err
	}
	defer os.RemoveAll(store)
	srv, _, err := workload.StartServer(bgctx, o.ServeBin, store)
	if err != nil {
		return workload.MixStats{}, err
	}
	mix := workload.DriveMix(bgctx, srv, o.Seed, o.Duration, r, observe)
	var ierr error
	if inspect != nil {
		ierr = inspect(srv)
	}
	if err := srv.Stop(); err != nil {
		return mix, fmt.Errorf("stopping server: %w", err)
	}
	return mix, ierr
}

// traceServe drives the mix untraced and then traced on fresh servers,
// derives the serve.* spans from the traced clients' line arrival times,
// and replays the fixed prefix's fresh runs in-process under the probe,
// checking each against the server's payload byte for byte.
func traceServe(o workload.Options) (*traced, error) {
	if o.ServeBin == "" {
		return nil, fmt.Errorf("serve-mixed needs the blackdp-serve binary (-serve-bin)")
	}
	t := newTraced(workload.ServeMixed, o.Seed)
	rs := startRuntimeSampler()

	plain, err := driveOnce(o, t.r, nil, nil)
	if err != nil {
		return nil, err
	}
	ss := newServeSpans()
	var scraped map[string]float64
	var journal, sweepReps float64
	traced, err := driveOnce(o, t.r, ss.observe, func(srv *workload.Server) error {
		var err error
		scraped, err = scrapeSeries(srv.URL, "blackdp_serve_cache_hits_total", "blackdp_serve_cache_misses_total", "blackdp_serve_jobs_rejected_total")
		if err != nil {
			return err
		}
		for ci := range workload.Tenants {
			jobs, err := srv.Client(ci).List(bgctx)
			if err != nil {
				return err
			}
			for _, j := range jobs {
				if j.Kind == "sweep" {
					sweepReps += float64(j.Reps)
				}
			}
		}
		journal = float64(dirSize(srv.Store))
		return nil
	})
	if err != nil {
		return nil, err
	}
	plainRes, tracedRes := workload.NewResult(workload.ServeMixed, o.Seed), workload.NewResult(workload.ServeMixed, o.Seed)
	workload.FillServeMetrics(plainRes, plain)
	workload.FillServeMetrics(tracedRes, traced)
	t.r.Check(strings.Join(plainRes.Digests, ",") == strings.Join(tracedRes.Digests, ","), "traced mix payloads differ from the untraced mix's")
	t.r.Digests = tracedRes.Digests
	perJob := func(res *workload.Result) time.Duration {
		return time.Duration(float64(time.Second) / res.Metrics["jobs_per_s"].Value)
	}
	t.overhead(perJob(tracedRes), perJob(plainRes))
	t.r.Notes["trace_overhead_basis"] = "wall-clock per completed job, traced mix versus untraced mix"
	t.phase("mix, mean over clients", ss.ledger(traced.Wall), ss.tr)

	p50 := func(vs []float64) float64 { return stats.Percentile(vs, 50) }
	t.layers.set("serve.accept_ms_p50", "ms", p50(ss.accept), len(ss.accept))
	t.layers.set("serve.queue_ms_p50", "ms", p50(ss.queue), len(ss.queue))
	t.layers.set("serve.exec_ms_p50", "ms", p50(ss.exec), len(ss.exec))
	t.layers.set("serve.hit_ms_p50", "ms", p50(ss.hit), len(ss.hit))
	t.layers.set("serve.retail_ms_p50", "ms", p50(ss.retail), len(ss.retail))
	t.layers.set("serve.trace_fetch_ms_p50", "ms", p50(ss.fetch), len(ss.fetch))
	t.layers.set("serve.payload_bytes_p50", "B", p50(ss.payloadBytes), len(ss.payloadBytes))
	hits, okH := scraped["blackdp_serve_cache_hits_total"]
	misses, okM := scraped["blackdp_serve_cache_misses_total"]
	if okH && okM {
		t.layers.set("serve.cache_hit_ratio", "fraction", ratio(hits, hits+misses), int(hits+misses))
	} else {
		t.layers.na("the server no longer exports blackdp_serve_cache_{hits,misses}_total", "serve.cache_hit_ratio")
	}
	if v, ok := scraped["blackdp_serve_jobs_rejected_total"]; ok {
		t.layers.set("serve.rejected", "count", v, 1)
	} else {
		t.layers.na("the server no longer exports blackdp_serve_jobs_rejected_total", "serve.rejected")
	}
	t.layers.set("serve.journal_bytes_per_rep", "B", ratio(journal, sweepReps), int(sweepReps))

	// In-process replay of the fixed prefix's serial fresh runs.
	var cfgs []blackdp.Config
	var want [][]byte
	for ci := range workload.Tenants {
		for i, op := range workload.Plan(o.Seed, ci, workload.ServeFixedOps) {
			if op.Kind != workload.OpFresh {
				continue
			}
			cfg, err := scenario.DecodeConfig(workload.ServeConfig(op.Seed, 0))
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, cfg)
			want = append(want, ss.fresh[[2]int{ci, i}])
		}
	}
	var refRun time.Duration
	mallocs, byts, err := allocsOf(func() error {
		for _, cfg := range cfgs {
			w, err := blackdp.Build(cfg)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := w.RunContext(bgctx); err != nil {
				return err
			}
			refRun += time.Since(t0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := newProbe(8, 1000)
	t0 := time.Now()
	for i, cfg := range cfgs {
		out, err := p.run(cfg)
		if err != nil {
			return nil, err
		}
		got, err := json.Marshal(struct {
			Outcomes []blackdp.Outcome `json:"outcomes"`
			Summary  blackdp.Report    `json:"summary"`
		}{[]blackdp.Outcome{out}, blackdp.Aggregate([]blackdp.Outcome{out}).Report()})
		if err != nil {
			return nil, err
		}
		t.r.Check(bytes.Equal(got, want[i]), "in-process replay of fresh run %d differs from the server's payload", i)
	}
	wall := time.Since(t0)
	t.phase("in-process replay of the fresh runs", simLedger(p, wall), p.tr)
	t.layers.fromProbe(p, untraced{reps: len(cfgs), runWall: refRun, mallocs: mallocs, byts: byts})
	t.layers.fromRuntime(rs)
	t.layers.na(reasonNoSweep, "exp.speedup")
	t.layers.na(reasonNoCrypto, "pki.ecdsa_share", "pki.session_share")
	return t, nil
}
