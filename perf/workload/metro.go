package workload

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"blackdp"
	"blackdp/perf/stats"
)

// metroBuilds is how many times the metro-grid set-up (building both
// worlds) is timed before the runs.
const metroBuilds = 3

// metroSeeds are the simulation seeds the workload draws from. Each was run
// on both executors and detects the attacker with 8 detection packets on
// both, which not every seed does (seeds 3, 4 and 10 use 6 on one of
// them), so accuracy and detection_packets read the same on every run. The
// worlds they make differ by under 2% in events and deliveries.
var metroSeeds = []int64{1, 2, 5, 6, 7, 8, 9, 11, 12}

// MetroConfig is the metro-grid world: a 3x3 grid city of 18 clusters and
// 1,800 vehicles (about 100 per cluster, the Table I density), free
// placeholder signatures, two data packets and 10 simulated seconds, with
// one of the vetted simulation seeds picked by the workload seed.
// workers >= 2 selects the cluster-sharded executor.
func MetroConfig(seed int64, workers int) blackdp.Config {
	cfg := blackdp.DefaultConfig()
	cfg.Topology = "grid"
	cfg.GridRows, cfg.GridCols = 3, 3
	cfg.Vehicles = 1800
	cfg.CryptoScheme = blackdp.SchemePlaceholder
	cfg.DataPackets = 2
	cfg.MaxSimTime = 10 * time.Second
	n := int64(len(metroSeeds))
	cfg.Seed = metroSeeds[(seed%n+n)%n]
	cfg.RunWorkers = workers
	return cfg
}

// metroExecutors are the two ways every metro world is run, in run order.
var metroExecutors = []struct {
	label string
	// metric is the end-to-end metric the run's wall-clock feeds.
	metric  string
	workers func() int
}{
	{"serial", "run_s", func() int { return 1 }},
	{"sharded", "run_sharded_s", ShardWorkers},
}

// buildMetro builds one metro world after collecting the previous one, so
// no run or build shares the heap with a world it does not use.
func buildMetro(seed int64, workers int) (*blackdp.World, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := blackdp.Build(MetroConfig(seed, workers))
	if err != nil {
		return nil, 0, fmt.Errorf("building metro world (RunWorkers %d): %w", workers, err)
	}
	return w, time.Since(t0), nil
}

// CheckMetro applies the metro-grid output checks to one executed world.
func CheckMetro(r *Result, label string, w *blackdp.World, o blackdp.Outcome) {
	if err := w.CheckConservation(); err != nil {
		r.Fail("%s world: %v", label, err)
	} else {
		r.OK()
	}
	r.Check(o.Detected, "%s world: attacker not detected", label)
}

// RunMetro is the metro-grid workload: the metro world built and run on the
// serial scheduler and then on the cluster-sharded executor, round after
// round until the duration is spent (at least one round). Every round runs
// the same inputs, so its outcomes must reproduce the first round's.
func RunMetro(ctx context.Context, o Options) (*Result, error) {
	r := NewResult(MetroGrid, o.Seed)

	var builds []time.Duration
	for i := 0; i < metroBuilds; i++ {
		var both time.Duration
		for _, ex := range metroExecutors {
			_, took, err := buildMetro(o.Seed, ex.workers())
			if err != nil {
				return nil, err
			}
			both += took
		}
		builds = append(builds, both)
	}
	r.set("setup_s", stats.Median(seconds(builds)), len(builds))

	var (
		wall     time.Duration
		runs     = map[string][]time.Duration{}
		all      []time.Duration
		outcomes []blackdp.Outcome
	)
	for round := 0; round == 0 || wall < o.Duration; round++ {
		for i, ex := range metroExecutors {
			w, _, err := buildMetro(o.Seed, ex.workers())
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			out, err := w.RunContext(ctx)
			if err != nil {
				return nil, fmt.Errorf("running %s metro world: %w", ex.label, err)
			}
			took := time.Since(t0)
			wall += took
			o.logf("metro-grid: round %d: %s run %v", round, ex.label, took.Round(time.Millisecond))
			runs[ex.metric] = append(runs[ex.metric], took)
			all = append(all, took)
			d := Digest(out)
			if round > 0 {
				r.Check(d == r.Digests[i], "round %d: %s outcome differs from round 0's", round, ex.label)
				continue
			}
			CheckMetro(r, ex.label, w, out)
			outcomes = append(outcomes, out)
			r.Digests = append(r.Digests, d)
		}
	}

	for _, ex := range metroExecutors {
		r.set(ex.metric, stats.Median(seconds(runs[ex.metric])), len(runs[ex.metric]))
	}
	r.set("reps_per_s", float64(len(all))/wall.Seconds(), len(all))
	r.set("jobs_per_s", float64(len(all))/wall.Seconds(), len(all))
	r.set("job_p50_ms", stats.Percentile(millis(all), 50), len(all))
	r.set("job_p95_ms", stats.Percentile(millis(all), 95), len(all))
	correct, packets := Confusion(outcomes)
	r.set("accuracy", float64(correct)/float64(len(outcomes)), len(outcomes))
	if len(packets) > 0 {
		r.set("detection_packets", meanInt(packets), len(packets))
	}
	rss, err := PeakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss, 1)
	r.Notes["rounds"] = len(all) / len(metroExecutors)
	r.Notes["sharded_speedup"] = stats.Median(seconds(runs["run_s"])) / stats.Median(seconds(runs["run_sharded_s"]))
	return r, nil
}
