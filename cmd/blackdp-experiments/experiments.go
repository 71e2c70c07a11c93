package main

import (
	"context"
	"fmt"
	"time"

	"blackdp"
	"blackdp/internal/exp"
	"blackdp/internal/report"
)

// params carries one experiment invocation's knobs. Every experiment is a
// pure function from params to report tables — rendering and CSV export
// happen in main — so the differential tests can compare worker counts
// directly on the table data.
type params struct {
	ctx        context.Context
	seed       int64
	reps       int
	workers    int    // replication pool size; 1 reproduces the historical serial path
	runWorkers int    // intra-run shard workers; <= 1 keeps each run on the serial scheduler
	scheme     string // crypto scheme of every config-driven scenario
}

func (p params) opts() []blackdp.Option {
	return []blackdp.Option{blackdp.WithWorkers(p.workers), blackdp.WithRunWorkers(p.runWorkers)}
}

// config is the base scenario every config-driven experiment starts from:
// Table I defaults at the invocation's seed and -scheme's signatures
// (-scheme placeholder measures the protocol without the crypto cost).
// Sharded execution (-run-workers >= 2) composes with any scheme.
func (p params) config() blackdp.Config {
	cfg := blackdp.DefaultConfig()
	cfg.Seed = p.seed
	cfg.CryptoScheme = p.scheme
	return cfg
}

func (p params) expOpts() exp.Options {
	return exp.Options{Workers: p.workers}
}

// experiments maps every subcommand to its implementation, in the order
// `all` runs them.
var experiments = []struct {
	name string
	run  func(params) ([]*report.Table, error)
}{
	{"table1", table1},
	{"fig4", fig4},
	{"fig5", fig5},
	{"compare", compare},
	{"connector", connector},
	{"crypto", crypto},
	{"loss", loss},
	{"density", density},
	{"topology", topology},
	{"overhead", overhead},
	{"fog", fog},
	{"faults", faults},
}

func lookup(name string) func(params) ([]*report.Table, error) {
	for _, e := range experiments {
		if e.name == name {
			return e.run
		}
	}
	return nil
}

func table1(params) ([]*report.Table, error) {
	t := report.New("TABLE I: Simulation parameters", "parameter", "value")
	for _, p := range blackdp.TableI() {
		if err := t.AddRow(p.Name, p.Value); err != nil {
			return nil, err
		}
	}
	return []*report.Table{t}, nil
}

func fig4(p params) ([]*report.Table, error) {
	base := p.config()
	var tables []*report.Table
	for _, kind := range []blackdp.AttackKind{blackdp.SingleBlackHole, blackdp.CooperativeBlackHole} {
		start := time.Now()
		points, err := blackdp.Fig4(p.ctx, base, kind, p.reps, p.opts()...)
		if err != nil {
			return nil, err
		}
		t := report.New(fmt.Sprintf("FIGURE 4: %s black hole (%d runs per point)", kind, p.reps),
			"cluster", "accuracy", "true_pos", "false_neg", "false_pos", "prevented", "pkts_min", "pkts_mean", "pkts_max")
		t.Slug = fmt.Sprintf("figure-4-%s", kind)
		for _, pt := range points {
			min, mean, max := pt.Summary.PacketStats()
			if err := t.AddRowf(pt.Cluster,
				fmt.Sprintf("%.1f%%", 100*pt.Summary.Accuracy()),
				fmt.Sprintf("%.1f%%", 100*pt.Summary.TPRate()),
				fmt.Sprintf("%.1f%%", 100*pt.Summary.FNRate()),
				fmt.Sprintf("%.1f%%", 100*pt.Summary.FPRate()),
				pt.Summary.PreventedOnly, min, fmt.Sprintf("%.1f", mean), max); err != nil {
				return nil, err
			}
		}
		t.Note("wall-clock %.1fs (%d workers)", time.Since(start).Seconds(), p.workers)
		tables = append(tables, t)
	}
	last := tables[len(tables)-1]
	last.Note("paper shape: 100%% accuracy and 0%% FP/FN in clusters 1-7; accuracy drops and")
	last.Note("FN rises in clusters 8-10 (evasion: acting legitimately, fleeing, renewal); FP stays 0.")
	return tables, nil
}

func fig5(p params) ([]*report.Table, error) {
	t := report.New(fmt.Sprintf("FIGURE 5: Number of detection packets (%d seeds per class)", p.reps),
		"scenario", "paper", "measured_min", "measured_max")
	for _, cat := range blackdp.Fig5Categories() {
		cat := cat
		packets, err := exp.Map(p.ctx, p.reps, p.expOpts(), func(_ context.Context, rep int) (int, error) {
			res, err := blackdp.RunFig5(cat, p.seed+int64(rep)*7919)
			if err != nil {
				return 0, fmt.Errorf("%v: %w", cat, err)
			}
			return res.Packets, nil
		})
		if err != nil {
			return nil, err
		}
		min, max := 1<<31, 0
		for _, n := range packets {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if err := t.AddRowf(cat, cat.PaperPackets(), min, max); err != nil {
			return nil, err
		}
	}
	return []*report.Table{t}, nil
}

func compare(p params) ([]*report.Table, error) {
	cfg := p.config()
	scores, err := blackdp.CompareDetectors(p.ctx, cfg, p.reps, p.opts()...)
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("ABLATION: SN baselines vs BlackDP (%d runs, Table I world)", p.reps),
		"detector", "hits", "runs", "misses", "false_pos", "undecided")
	for _, s := range scores {
		if err := t.AddRowf(s.Name, s.Hits, s.Runs, s.Misses, s.FalsePos, s.NoDecision); err != nil {
			return nil, err
		}
	}
	return []*report.Table{t}, nil
}

func connector(p params) ([]*report.Table, error) {
	t := report.New(fmt.Sprintf("ABLATION: connector topology (%d seeds per inflation)", p.reps),
		"seq_inflation", "replies", "first_reply", "peak", "threshold", "blackdp")
	for _, bonus := range []blackdp.SeqNum{30, 120, 500} {
		bonus := bonus
		results, err := exp.Map(p.ctx, p.reps, p.expOpts(),
			func(_ context.Context, rep int) (blackdp.ConnectorResult, error) {
				return blackdp.RunConnector(p.seed+int64(rep)*7919, bonus)
			})
		if err != nil {
			return nil, err
		}
		hits := map[string]int{}
		replies, detected := 0, 0
		for _, res := range results {
			replies += res.Replies
			for name, hit := range res.BaselineFlagged {
				if hit {
					hits[name]++
				}
			}
			if res.BlackDPDetected {
				detected++
			}
		}
		if err := t.AddRowf(fmt.Sprintf("+%d", bonus),
			fmt.Sprintf("%.1f", float64(replies)/float64(p.reps)),
			frac(hits["first-reply-comparison"], p.reps),
			frac(hits["dynamic-peak"], p.reps),
			frac(hits["static-threshold"], p.reps),
			frac(detected, p.reps)); err != nil {
			return nil, err
		}
	}
	t.Note("paper claim: with a single (forged) reply none of the SN methods can detect;")
	t.Note("BlackDP examines behaviour directly and convicts regardless of inflation size.")
	return []*report.Table{t}, nil
}

func frac(n, d int) string { return fmt.Sprintf("%d/%d", n, d) }

func loss(p params) ([]*report.Table, error) {
	t := report.New(fmt.Sprintf("ABLATION: detection under channel loss (%d runs per point)", p.reps),
		"loss_rate", "detected", "blocked_anyway", "false_pos", "delivery")
	for _, rate := range []float64{0, 0.01, 0.02, 0.05, 0.10} {
		cfg := p.config()
		cfg.AttackerCluster = 4
		cfg.LossRate = rate
		outcomes, err := blackdp.Sweep(p.ctx, cfg, p.reps, p.opts()...)
		if err != nil {
			return nil, err
		}
		s := blackdp.Aggregate(outcomes)
		if err := t.AddRowf(fmt.Sprintf("%.0f%%", 100*rate), frac(s.TP, s.Runs),
			s.PreventedOnly, s.FP, fmt.Sprintf("%.0f%%", 100*s.DeliveryRatio())); err != nil {
			return nil, err
		}
	}
	return []*report.Table{t}, nil
}

func density(p params) ([]*report.Table, error) {
	t := report.New(fmt.Sprintf("ABLATION: vehicle density — RSU load (%d runs per point)", p.reps),
		"vehicles", "detected", "mean_latency", "p95_latency", "mean_packets", "wall_per_run")
	for _, n := range []int{50, 100, 200} {
		cfg := p.config()
		cfg.AttackerCluster = 4
		cfg.Vehicles = n
		start := time.Now()
		outcomes, err := blackdp.Sweep(p.ctx, cfg, p.reps, p.opts()...)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start) / time.Duration(p.reps)
		s := blackdp.Aggregate(outcomes)
		_, mean, _ := s.PacketStats()
		if err := t.AddRowf(n, frac(s.TP, s.Runs),
			s.MeanLatency().Round(time.Microsecond),
			s.LatencyPercentile(95).Round(time.Microsecond),
			fmt.Sprintf("%.1f", mean), wall.Round(time.Millisecond)); err != nil {
			return nil, err
		}
	}
	return []*report.Table{t}, nil
}

// topology runs the same attack on every road layout the simulator can
// build: the paper's highway plus the composed metro topologies. Outcomes
// are folded through the streaming aggregator (SweepStream), so the table
// doubles as an end-to-end exercise of the bounded-memory sweep path.
func topology(p params) ([]*report.Table, error) {
	t := report.New(fmt.Sprintf("ABLATION: road topology (%d runs per row, attacker in cluster 4)", p.reps),
		"topology", "clusters", "detected", "false_pos", "mean_latency", "delivery")
	for _, row := range []struct {
		name     string
		clusters int
		mutate   func(*blackdp.Config)
	}{
		{"highway", 10, func(*blackdp.Config) {}},
		{"grid 4x4", 32, func(c *blackdp.Config) { c.Topology = "grid" }},
		{"multi x3", 30, func(c *blackdp.Config) { c.Topology = "multi" }},
		{"interchange", 20, func(c *blackdp.Config) { c.Topology = "interchange" }},
	} {
		cfg := p.config()
		cfg.AttackerCluster = 4
		row.mutate(&cfg)
		stream, err := blackdp.SweepStream(p.ctx, cfg, p.reps, p.opts()...)
		if err != nil {
			return nil, err
		}
		r := stream.Report()
		if err := t.AddRowf(row.name, row.clusters, frac(r.TP, r.Runs), r.FP,
			r.MeanLatency.Round(time.Microsecond),
			fmt.Sprintf("%.0f%%", 100*r.DeliveryRatio)); err != nil {
			return nil, err
		}
	}
	t.Note("the protocol is topology-agnostic: detection rides the membership and")
	t.Note("routing layers, which see only cluster adjacency, never road geometry.")
	return []*report.Table{t}, nil
}

func overhead(p params) ([]*report.Table, error) {
	t := report.New(fmt.Sprintf("ABLATION: the 'lightweight' claim — air traffic (%d runs)", p.reps),
		"mode", "frames_per_run", "bytes_per_run", "delivery", "detected")
	type row struct {
		name   string
		verify bool
		attack blackdp.AttackKind
	}
	for _, r := range []row{
		{"plain AODV, no attack", false, blackdp.NoAttack},
		{"BlackDP, no attack", true, blackdp.NoAttack},
		{"plain AODV, black hole", false, blackdp.SingleBlackHole},
		{"BlackDP, black hole", true, blackdp.SingleBlackHole},
	} {
		cfg := p.config()
		cfg.AttackerCluster = 4
		cfg.Attack = r.attack
		cfg.Vehicle.Verify = r.verify
		outcomes, err := blackdp.Sweep(p.ctx, cfg, p.reps, p.opts()...)
		if err != nil {
			return nil, err
		}
		var frames, bytes uint64
		for _, o := range outcomes {
			frames += o.AirFrames
			bytes += o.AirBytes
		}
		s := blackdp.Aggregate(outcomes)
		if err := t.AddRowf(r.name, frames/uint64(p.reps), bytes/uint64(p.reps),
			fmt.Sprintf("%.0f%%", 100*s.DeliveryRatio()), frac(s.TP, s.Runs)); err != nil {
			return nil, err
		}
	}
	t.Note("detection cost is the byte/frame delta between the BlackDP and plain rows;")
	t.Note("signed packets dominate it (a sealed RREP carries a certificate + two signatures).")
	return []*report.Table{t}, nil
}

func fog(p params) ([]*report.Table, error) {
	t := report.New("ABLATION: RSU authentication bottleneck and fog offload (SIII-C, 20ms/packet)",
		"reporters", "fog_nodes", "mean_verdict_latency", "worst_auth_delay")
	for _, reporters := range []int{10, 30, 60} {
		for _, fogNodes := range []int{0, 4} {
			res, err := blackdp.RunFogAblation(p.seed, reporters, 20*time.Millisecond, fogNodes)
			if err != nil {
				return nil, err
			}
			if err := t.AddRowf(reporters, fogNodes,
				res.MeanVerdict.Round(time.Millisecond),
				res.MaxAuthLatency.Round(time.Millisecond)); err != nil {
				return nil, err
			}
		}
	}
	t.Note("the paper's mitigation holds: fog verifiers flatten the queueing delay that")
	t.Note("would otherwise grow linearly with cluster density.")
	return []*report.Table{t}, nil
}

// faults sweeps injected infrastructure failures: RSU head outages of rising
// duration (bridged by d_req retransmission, then head failover) and a
// Gilbert–Elliott burst-loss channel of rising severity. The last outage row
// ablates the robustness machinery to show it is load-bearing.
func faults(p params) ([]*report.Table, error) {
	outage := report.New(fmt.Sprintf("FAULTS: reporter-head outage — retry + failover (%d runs per row)", p.reps),
		"head_downtime", "detected", "retransmits", "failovers", "mean_latency", "mean_packets")
	outage.Slug = "faults-head-outage"
	const crashAt = time.Second // before the d_req is filed at ~1.5s
	type outageRow struct {
		name    string
		plan    blackdp.FaultPlan
		retries int // 0 = protocol default, -1 = ablated
	}
	for _, r := range []outageRow{
		{"none", blackdp.FaultPlan{}, 0},
		{"5s", blackdp.CrashPlan(1, crashAt, crashAt+5*time.Second), 0},
		{"10s", blackdp.CrashPlan(1, crashAt, crashAt+10*time.Second), 0},
		{"permanent", blackdp.CrashPlan(1, crashAt, 0), 0},
		{"permanent (no retry/failover)", blackdp.CrashPlan(1, crashAt, 0), -1},
	} {
		cfg := p.config()
		cfg.AttackerCluster = 4 // the source (and its head) start in cluster 1
		cfg.Fault = r.plan
		cfg.Vehicle.DReqRetries = r.retries
		outcomes, err := blackdp.Sweep(p.ctx, cfg, p.reps, p.opts()...)
		if err != nil {
			return nil, err
		}
		s := blackdp.Aggregate(outcomes)
		var retx, fo uint64
		for _, o := range outcomes {
			retx += o.DReqRetransmits
			fo += o.Failovers
		}
		_, mean, _ := s.PacketStats()
		if err := outage.AddRowf(r.name, frac(s.TP, s.Runs), retx, fo,
			s.MeanLatency().Round(time.Millisecond), fmt.Sprintf("%.1f", mean)); err != nil {
			return nil, err
		}
	}
	outage.Note("the crash targets the reporter's own head before the d_req goes out; short")
	outage.Note("outages are bridged by retransmission, a dead head by failover to the adjacent")
	outage.Note("cluster. The ablated row files one d_req into the void and gives up.")

	burst := report.New(fmt.Sprintf("FAULTS: Gilbert–Elliott burst loss (%d runs per row)", p.reps),
		"bad_state_loss", "effective_loss", "detected", "false_pos", "mean_latency", "delivery")
	burst.Slug = "faults-burst-loss"
	for _, lossBad := range []float64{0, 0.06, 0.15, 0.30} {
		cfg := p.config()
		cfg.AttackerCluster = 4
		if lossBad > 0 {
			cfg.Fault = blackdp.BurstPlan(lossBad, 0.1, 0.2)
		}
		outcomes, err := blackdp.Sweep(p.ctx, cfg, p.reps, p.opts()...)
		if err != nil {
			return nil, err
		}
		s := blackdp.Aggregate(outcomes)
		var offered, lost uint64
		for _, o := range outcomes {
			offered += o.AirOffered
			lost += o.AirLost
		}
		effective := 0.0
		if offered > 0 {
			effective = float64(lost) / float64(offered)
		}
		if err := burst.AddRowf(fmt.Sprintf("%.0f%%", 100*lossBad),
			fmt.Sprintf("%.1f%%", 100*effective), frac(s.TP, s.Runs), s.FP,
			s.MeanLatency().Round(time.Millisecond),
			fmt.Sprintf("%.0f%%", 100*s.DeliveryRatio())); err != nil {
			return nil, err
		}
	}
	burst.Note("bursts hit whole frame trains, the worst case for request/reply protocols;")
	burst.Note("retransmission keeps the degradation gradual instead of a cliff.")
	return []*report.Table{outage, burst}, nil
}

func crypto(p params) ([]*report.Table, error) {
	t := report.New(fmt.Sprintf("ABLATION: signature scheme cost vs detection accuracy (%d runs each)", p.reps),
		"scheme", "detected", "mean_detection_latency", "wall_per_run")
	rows := []struct{ name, scheme string }{
		{"ecdsa-p256", blackdp.SchemeECDSA},
		{"session-token-hmac", blackdp.SchemeSession},
		{"insecure-digest", blackdp.SchemePlaceholder},
	}
	for _, row := range rows {
		cfg := p.config()
		cfg.AttackerCluster = 4
		cfg.CryptoScheme = row.scheme
		start := time.Now()
		outcomes, err := blackdp.Sweep(p.ctx, cfg, p.reps, p.opts()...)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start) / time.Duration(p.reps)
		s := blackdp.Aggregate(outcomes)
		if err := t.AddRowf(row.name, frac(s.TP, s.Runs),
			s.MeanLatency().Round(time.Microsecond), wall.Round(time.Millisecond)); err != nil {
			return nil, err
		}
	}
	t.Note("detection is scheme-independent (the differential wall pins it); the rows differ")
	t.Note("only in wall clock: each world's ECDSA memo elides repeat checks, and the")
	t.Note("session-token scheme amortises one ECDSA signature across a pseudonym epoch.")
	return []*report.Table{t}, nil
}
