package workload

import (
	"context"
	"fmt"
	"time"

	"blackdp"
	"blackdp/perf/stats"
)

// Fig4Reps is the replication count per attacker cluster and attack kind in
// one Figure 4 grid: 10 clusters x 2 kinds x Fig4Reps worlds per pass.
const Fig4Reps = 6

// fig4Warmups is how many times the warm-up replication is timed for
// setup_s.
const fig4Warmups = 9

// fig4Grids is how many distinct grid worlds the timed passes cycle
// through. A run times about as many passes, so every run covers nearly the
// same grids and the throughput does not hang on which ones the seed drew.
const fig4Grids = 12

// Fig4Base is the Table I world under ECDSA P-256 that grid pass p sweeps.
// Pass 0 is the paper's own world at DefaultConfig's seed, the same on
// every run, so the accuracy and detection-packet figures measured on it
// are identical across seeds. Later passes cycle through fig4Grids fixed
// draws, starting at the one the workload seed picks.
func Fig4Base(seed int64, pass int) blackdp.Config {
	cfg := blackdp.DefaultConfig()
	cfg.CryptoScheme = blackdp.SchemeECDSA
	if pass > 0 {
		g := ((seed+int64(pass-1))%fig4Grids + fig4Grids) % fig4Grids
		cfg.Seed = Derive(0, "fig4-grid", int(g))
	}
	return cfg
}

// Fig4Probe is the Table I world of the per-cluster run probes: the
// paper's world with the attacker in cluster c (1..10), single black hole,
// evasive tail as in Figure 4. c = 0 leaves the attacker's cluster to the
// seed, as DefaultConfig does; that world is the warm-up replication. The
// probes time the same worlds on every run, so run_s measures the code and
// not the draw.
func Fig4Probe(c int) blackdp.Config {
	cfg := blackdp.DefaultConfig()
	cfg.CryptoScheme = blackdp.SchemeECDSA
	cfg.AttackerCluster = c
	if c > 0 {
		cfg.EvasiveClusters = []int{8, 9, 10}
	}
	return cfg
}

// Fig4Pass is one grid pass's deterministic output.
type Fig4Pass struct {
	Single      []blackdp.Fig4Point
	Cooperative []blackdp.Fig4Point
	Fig5        []blackdp.Fig5Result
}

// Digest pins the pass's outputs.
func (p Fig4Pass) Digest() string { return Digest(p) }

// RunFig4Pass runs the full Figure 4 grid (both attack kinds) and one
// Figure 5 series of pass p with the given options.
func RunFig4Pass(ctx context.Context, seed int64, pass int, opts ...blackdp.Option) (Fig4Pass, error) {
	base := Fig4Base(seed, pass)
	var out Fig4Pass
	var err error
	if out.Single, err = blackdp.Fig4(ctx, base, blackdp.SingleBlackHole, Fig4Reps, opts...); err != nil {
		return out, fmt.Errorf("fig4 single: %w", err)
	}
	if out.Cooperative, err = blackdp.Fig4(ctx, base, blackdp.CooperativeBlackHole, Fig4Reps, opts...); err != nil {
		return out, fmt.Errorf("fig4 cooperative: %w", err)
	}
	if out.Fig5, err = blackdp.Fig5(ctx, base.Seed, opts...); err != nil {
		return out, fmt.Errorf("fig5: %w", err)
	}
	return out, nil
}

// Reps is the number of replications the pass ran.
func (p Fig4Pass) Reps() int {
	n := len(p.Fig5)
	for _, pts := range [][]blackdp.Fig4Point{p.Single, p.Cooperative} {
		for _, pt := range pts {
			n += pt.Summary.Runs
		}
	}
	return n
}

// Confusion returns the grid's correct verdicts (TP+TN), runs, and the
// detection-packet counts of every run that examined its attacker.
func (p Fig4Pass) Confusion() (correct, runs int, packets []int) {
	for _, pts := range [][]blackdp.Fig4Point{p.Single, p.Cooperative} {
		for _, pt := range pts {
			correct += pt.Summary.TP + pt.Summary.TN
			runs += pt.Summary.Runs
			packets = append(packets, pt.Summary.DetectionPackets...)
		}
	}
	return correct, runs, packets
}

// check applies the per-pass output checks: a full grid, and every Figure 5
// category at the paper's packet count.
func (p Fig4Pass) check(r *Result, pass int) {
	r.Check(len(p.Single) == 10 && len(p.Cooperative) == 10, "pass %d: %d+%d Figure 4 points, want 10+10",
		pass, len(p.Single), len(p.Cooperative))
	for _, f := range p.Fig5 {
		r.Check(f.Packets == f.Category.PaperPackets(), "pass %d: fig5 %v: %d packets, paper reports %d",
			pass, f.Category, f.Packets, f.Category.PaperPackets())
	}
}

// timeReplication builds and runs one world, returning the build and run
// wall-clock and the outcome.
func timeReplication(ctx context.Context, cfg blackdp.Config) (build, run time.Duration, o blackdp.Outcome, err error) {
	t0 := time.Now()
	w, err := blackdp.Build(cfg)
	if err != nil {
		return 0, 0, o, err
	}
	build = time.Since(t0)
	t1 := time.Now()
	o, err = w.RunContext(ctx)
	return build, time.Since(t1), o, err
}

// probeRound times one world per attacker cluster on each executor and
// appends the mean run time over the ten clusters to probes, keyed by the
// executor's worker count. A round follows every grid pass, so the probes
// sample the whole run rather than one stretch of it.
func probeRound(ctx context.Context, r *Result, probes map[int][]float64, check bool) error {
	for _, workers := range []int{1, ShardWorkers()} {
		var sum time.Duration
		for c := 1; c <= 10; c++ {
			cfg := Fig4Probe(c)
			cfg.RunWorkers = workers
			_, run, out, err := timeReplication(ctx, cfg)
			if err != nil {
				return fmt.Errorf("run probe cluster %d: %w", c, err)
			}
			if check {
				r.Check(out.AttackerPresent && out.Duration > 0, "run probe cluster %d (RunWorkers %d): empty outcome", c, workers)
			}
			sum += run
		}
		probes[workers] = append(probes[workers], (sum / 10).Seconds())
	}
	return nil
}

// RunFig4 is the paper-fig4 workload: the Table I highway, the full
// Figure 4 grid through blackdp.Fig4 at one sweep worker per CPU, and one
// Figure 5 series as an output check.
func RunFig4(ctx context.Context, o Options) (*Result, error) {
	r := NewResult(PaperFig4, o.Seed)

	// Set-up: the warm-up replication, repeated for a median.
	var setups []time.Duration
	for i := 0; i < fig4Warmups; i++ {
		b, run, _, err := timeReplication(ctx, Fig4Probe(0))
		if err != nil {
			return nil, fmt.Errorf("warm-up replication: %w", err)
		}
		setups = append(setups, b+run)
	}
	r.set("setup_s", stats.Median(seconds(setups)), len(setups))

	// Timed phase: grid passes until the duration is spent, at least two
	// (the paper's grid and the first of the cycle).
	var (
		passes []time.Duration
		peaks  []float64 // MiB, per pass
		wall   time.Duration
		reps   int
		first  string // pass 1's digest
		// probes holds, per executor, one mean run time per probe round.
		probes = map[int][]float64{}
	)
	// The peak RSS restarts at every pass where the kernel allows it, so
	// peak_rss_mb is a median over passes rather than one high-water mark
	// that a single GC's timing sets.
	perPass := ResetPeakRSS() == nil
	for pass := 0; pass < 2 || wall < o.Duration; pass++ {
		if perPass {
			if err := ResetPeakRSS(); err != nil {
				return nil, fmt.Errorf("resetting peak RSS: %w", err)
			}
		}
		t0 := time.Now()
		p, err := RunFig4Pass(ctx, o.Seed, pass, blackdp.WithWorkers(Procs()))
		if err != nil {
			return nil, err
		}
		took := time.Since(t0)
		wall += took
		passes = append(passes, took)
		rss, err := PeakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
		reps += p.Reps()
		o.logf("paper-fig4: pass %d: %d reps in %v", pass, p.Reps(), took.Round(time.Millisecond))
		p.check(r, pass)
		r.Digests = append(r.Digests, p.Digest())
		switch pass {
		case 0:
			correct, runs, packets := p.Confusion()
			r.set("accuracy", float64(correct)/float64(runs), runs)
			r.set("detection_packets", meanInt(packets), len(packets))
		case 1:
			first = p.Digest()
		}
		if err := probeRound(ctx, r, probes, pass == 0); err != nil {
			return nil, err
		}
	}
	// Determinism: pass 1 again, untimed, must reproduce its outputs.
	again, err := RunFig4Pass(ctx, o.Seed, 1, blackdp.WithWorkers(Procs()))
	if err != nil {
		return nil, err
	}
	r.Check(again.Digest() == first, "pass 1 rerun: digest %s differs from %s", again.Digest()[:12], first[:12])

	r.set("run_s", stats.Median(probes[1]), 10*len(probes[1]))
	r.set("run_sharded_s", stats.Median(probes[ShardWorkers()]), 10*len(probes[1]))

	r.set("reps_per_s", float64(reps)/wall.Seconds(), reps)
	r.set("jobs_per_s", float64(len(passes))/wall.Seconds(), len(passes))
	r.set("job_p50_ms", stats.Percentile(millis(passes), 50), len(passes))
	r.set("job_p95_ms", stats.Percentile(millis(passes), 95), len(passes))
	if perPass {
		r.set("peak_rss_mb", stats.Median(peaks), len(peaks))
	} else {
		r.set("peak_rss_mb", peaks[len(peaks)-1], 1)
		r.Notes["peak_rss"] = "whole run: the kernel refused to reset the peak per pass"
	}
	r.Notes["passes"] = len(passes)
	r.Notes["grid_wall_s"] = wall.Seconds()
	return r, nil
}
