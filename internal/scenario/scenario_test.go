package scenario

import (
	"context"
	"strings"
	"testing"
	"time"

	"blackdp/internal/metrics"
	"blackdp/internal/wire"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string // a substring of the error; "" means valid
	}{
		{"defaults", func(*Config) {}, ""},
		{"too few vehicles", func(c *Config) { c.Vehicles = 2 }, "vehicles"},
		{"inverted speeds", func(c *Config) { c.SpeedMinKmh = 90; c.SpeedMaxKmh = 50 }, "speed range"},
		{"too many authorities", func(c *Config) { c.Authorities = 99 }, "authorities"},
		{"attacker cluster out of range", func(c *Config) { c.AttackerCluster = 11 }, "attacker cluster"},
		{"loss rate 1", func(c *Config) { c.LossRate = 1 }, "loss rate"},
		{"cooperative", func(c *Config) { c.Attack = CooperativeBlackHole }, ""},
		{"negative backbone latency", func(c *Config) { c.BackboneLatency = -1 }, "backbone latency"},
		{"d_req retries -1", func(c *Config) { c.Vehicle.DReqRetries = -1 }, ""},
		{"d_req retries -2", func(c *Config) { c.Vehicle.DReqRetries = -2 }, "Vehicle.DReqRetries"},
		{"negative stage delay", func(c *Config) { c.Head.StageDelay = -1 }, "Head.StageDelay"},
		{"negative auth processing", func(c *Config) { c.Head.AuthProcessing = -1 }, "Head.AuthProcessing"},
		{"negative fog nodes", func(c *Config) { c.Head.FogNodes = -5 }, "Head.FogNodes"},
		{"too many fog nodes", func(c *Config) { c.Head.FogNodes = 1 << 40 }, "Head.FogNodes"},
		{"fog ablation", func(c *Config) { c.Head.AuthProcessing = 20 * time.Millisecond; c.Head.FogNodes = 4 }, ""},
		{"huge population", func(c *Config) { c.Vehicles = 1 << 62 }, "Vehicles"},
		{"metro 100k", func(c *Config) { *c = metroConfig(100_000, 23) }, ""},
		{"billion clusters", func(c *Config) { c.HighwayLengthM = 1e12 }, "HighwayLengthM"},
		{"millimetre clusters", func(c *Config) { c.ClusterLengthM = 0.001 }, "ClusterLengthM"},
		{"infinite ratio", func(c *Config) { c.HighwayLengthM = 1e308; c.ClusterLengthM = 1e-308 }, "ClusterLengthM"},
		{"negative infinite ratio", func(c *Config) { c.HighwayLengthM = -1e308; c.ClusterLengthM = 1e-308 }, "HighwayLengthM"},
		{"wide multi", func(c *Config) { c.Topology = "multi"; c.HighwayCount = 64; c.HighwayLengthM = 1e9 }, "HighwayLengthM"},
		{"multi over the cluster bound", func(c *Config) {
			c.Topology = "multi"
			c.HighwayCount = 64
			c.HighwayLengthM = 200_000
		}, "HighwayCount"},
		{"largest grid", func(c *Config) { c.Topology = "grid"; c.GridRows, c.GridCols = 64, 64 }, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != (tt.want != "") || err != nil && !strings.Contains(err.Error(), tt.want) {
				t.Errorf("Validate() error = %v, want %q", err, tt.want)
			}
		})
	}
}

func TestWithDefaultsFillsZeroes(t *testing.T) {
	var c Config
	c = c.withDefaults()
	if c.Vehicles != 100 || c.HighwayLengthM != 10_000 || c.Attack != SingleBlackHole {
		t.Errorf("withDefaults did not apply Table I: %+v", c)
	}
}

func TestAttackKindStrings(t *testing.T) {
	if NoAttack.String() != "none" || SingleBlackHole.String() != "single" ||
		CooperativeBlackHole.String() != "cooperative" {
		t.Error("attack kind names wrong")
	}
	if AttackKind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.AttackerCluster = 5
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
}

func TestSingleAttackDetectedInNonEvasiveClusters(t *testing.T) {
	for _, cl := range []int{1, 3, 6} {
		cfg := DefaultConfig()
		cfg.Seed = int64(100 + cl)
		cfg.AttackerCluster = cl
		o, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("cluster %d: %v", cl, err)
		}
		if !o.Detected {
			t.Errorf("cluster %d: attacker not detected (status %s)", cl, o.EstablishStatus)
		}
		if o.FalseAccusations != 0 {
			t.Errorf("cluster %d: %d false accusations", cl, o.FalseAccusations)
		}
		if o.DetectionPackets < 6 || o.DetectionPackets > 9 {
			t.Errorf("cluster %d: %d detection packets, want within the paper's 6-9",
				cl, o.DetectionPackets)
		}
	}
}

func TestCooperativeAttackDetected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Attack = CooperativeBlackHole
	cfg.AttackerCluster = 2
	o, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Detected {
		t.Fatalf("cooperative attacker not detected: %+v", o)
	}
	if !o.TeammateDetected {
		t.Error("accomplice not detected")
	}
	if o.DetectionPackets < 8 || o.DetectionPackets > 11 {
		t.Errorf("%d detection packets, want within the paper's 8-11", o.DetectionPackets)
	}
}

func TestEvasiveClustersProduceFalseNegativesNeverFalsePositives(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AttackerCluster = 9
	cfg.EvasiveClusters = []int{8, 9, 10}
	outcomes, err := RunSweep(context.Background(), cfg, 0, 12, SweepOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := metrics.Aggregate(outcomes)
	if s.FP != 0 {
		t.Errorf("false positives in evasive runs: %d", s.FP)
	}
	if s.FN == 0 {
		t.Error("no false negatives despite evasion; accuracy should drop in clusters 8-10")
	}
	if s.TP == 0 {
		t.Error("evasion should not blind detection completely")
	}
}

func TestNoAttackRunIsCleanTrueNegative(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 13
	cfg.Attack = NoAttack
	o, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp, fn, fp, tn := o.Classify()
	if tp || fn || fp || !tn {
		t.Errorf("clean run classified %v %v %v %v, want TN only", tp, fn, fp, tn)
	}
	if o.EstablishStatus != "verified" {
		t.Errorf("status = %q, want verified in an honest network", o.EstablishStatus)
	}
	// No transport layer: a packet can die during a mobility-induced route
	// transition, but an honest network must deliver the large majority.
	if o.DataSent == 0 || float64(o.DataDelivered) < 0.8*float64(o.DataSent) {
		t.Errorf("delivery %d/%d in an honest network", o.DataDelivered, o.DataSent)
	}
}

func TestPlainAODVLosesDataToBlackHole(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 17
	cfg.AttackerCluster = 2
	cfg.Vehicle.Verify = false
	o, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.Detected {
		t.Error("plain AODV cannot detect anything")
	}
	if o.DataSent == 0 {
		t.Fatal("no data sent; scenario broken")
	}
	if o.DataDelivered != 0 {
		t.Errorf("black hole leaked %d/%d packets in plain mode", o.DataDelivered, o.DataSent)
	}
}

func TestBlackDPRestoresDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 17 // same world as the plain-mode test
	cfg.AttackerCluster = 2
	o, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Detected {
		t.Fatalf("attacker not detected: %+v", o)
	}
	if o.DataDelivered == 0 {
		t.Errorf("no data delivered after isolation (%d sent)", o.DataSent)
	}
}

func TestInsecureSchemeRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 19
	cfg.AttackerCluster = 3
	cfg.CryptoScheme = SchemePlaceholder
	o, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Detected {
		t.Errorf("detection failed under the placeholder scheme: %+v", o)
	}
}

func TestLossyChannelStillDetects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 23
	cfg.AttackerCluster = 2
	cfg.LossRate = 0.02
	o, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Detected && !o.Prevented {
		t.Errorf("2%% loss defeated the protocol entirely: %+v", o)
	}
}

func TestRunSweepDistinctSeeds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AttackerCluster = 2
	outcomes, err := RunSweep(context.Background(), cfg, 0, 3, SweepOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("RunSweep returned %d outcomes", len(outcomes))
	}
	seen := map[int64]bool{}
	for _, o := range outcomes {
		if seen[o.Seed] {
			t.Errorf("duplicate seed %d", o.Seed)
		}
		seen[o.Seed] = true
	}
}

func TestRunSweepMutate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSimTime = 20 * time.Second
	clusters := []int{}
	_, err := RunSweep(context.Background(), cfg, 0, 2, SweepOptions{}, func(rep int, c *Config) {
		c.AttackerCluster = rep + 1
		clusters = append(clusters, c.AttackerCluster)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 || clusters[0] != 1 || clusters[1] != 2 {
		t.Errorf("mutate hooks saw %v", clusters)
	}
}

func TestFig5AllCategoriesMatchPaper(t *testing.T) {
	for _, cat := range Fig5Categories() {
		cat := cat
		t.Run(cat.String(), func(t *testing.T) {
			res, err := RunFig5(cat, 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.Packets != cat.PaperPackets() {
				t.Errorf("detection packets = %d, paper reports %d (case %+v)",
					res.Packets, cat.PaperPackets(), res.Case)
			}
			wantVerdict := wire.VerdictMalicious
			if !cat.attacker() {
				wantVerdict = wire.VerdictLegitimate
			}
			if res.Verdict != wantVerdict {
				t.Errorf("verdict = %v, want %v", res.Verdict, wantVerdict)
			}
			if cat.cooperative() && res.Case.Teammate == 0 {
				t.Error("cooperative case did not expose the teammate")
			}
		})
	}
}

func TestFig5SeriesOrdered(t *testing.T) {
	series, err := Fig5Series(context.Background(), 5, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(Fig5Categories()) {
		t.Fatalf("series has %d entries", len(series))
	}
	for i, cat := range Fig5Categories() {
		if series[i].Category != cat {
			t.Errorf("series[%d] = %v, want %v", i, series[i].Category, cat)
		}
	}
}

func TestRunFig4SmallSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HighwayLengthM = 4000 // 4 clusters keeps the sweep fast
	cfg.Vehicles = 40
	cfg.Authorities = 1
	points, err := RunFig4(context.Background(), cfg, SingleBlackHole, 2, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("sweep produced %d points, want 4", len(points))
	}
	for _, p := range points {
		if p.Summary.Runs != 2 {
			t.Errorf("cluster %d: %d runs, want 2", p.Cluster, p.Summary.Runs)
		}
		if p.Summary.FP != 0 {
			t.Errorf("cluster %d: false positives", p.Cluster)
		}
	}
	// Non-evasive clusters (1, here) should detect perfectly.
	if points[0].Summary.Accuracy() != 1 {
		t.Errorf("cluster 1 accuracy = %v, want 1", points[0].Summary.Accuracy())
	}
}

func TestConnectorCaseDefeatsBaselinesNotBlackDP(t *testing.T) {
	// The paper's key related-work argument: when the attacker is the sole
	// connector between two highway segments, the source sees exactly one
	// (forged) reply. Comparison methods have nothing to compare, and a
	// modestly inflating attacker stays under every threshold — yet the
	// behavioural probe convicts it regardless of magnitude.
	res, err := RunConnector(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replies != 1 {
		t.Fatalf("connector produced %d replies, want exactly 1", res.Replies)
	}
	for name, hit := range res.BaselineFlagged {
		if hit {
			t.Errorf("baseline %q flagged the modest connector attacker; the topology no longer isolates the weakness", name)
		}
	}
	if !res.BlackDPDetected {
		t.Error("BlackDP missed the connector attacker")
	}
}

func TestConnectorAggressiveAttackerStillDetected(t *testing.T) {
	res, err := RunConnector(5, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BlackDPDetected {
		t.Error("BlackDP missed the aggressive connector attacker")
	}
	if !res.BaselineFlagged["dynamic-peak"] {
		t.Error("peak detector should catch wildly inflated sequence numbers")
	}
}

func TestCompareDetectorsScoresAllRows(t *testing.T) {
	scores, err := CompareDetectors(context.Background(), DefaultConfig(), 2, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("got %d score rows, want 3 baselines + blackdp", len(scores))
	}
	var blackdp *DetectorScore
	for i := range scores {
		if scores[i].Runs != 2 {
			t.Errorf("%s scored %d runs, want 2", scores[i].Name, scores[i].Runs)
		}
		if scores[i].Name == "blackdp" {
			blackdp = &scores[i]
		}
	}
	if blackdp == nil {
		t.Fatal("no blackdp row")
	}
	if blackdp.Hits != 2 || blackdp.FalsePos != 0 {
		t.Errorf("blackdp score = %+v, want perfect on non-evasive attacks", *blackdp)
	}
}

func TestBuildExposesRoles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Attack = CooperativeBlackHole
	cfg.AttackerCluster = 4
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Source == nil || w.Destination == nil || w.Attacker == nil || w.Teammate == nil {
		t.Fatal("roles not populated")
	}
	if len(w.Vehicles) != cfg.Vehicles {
		t.Errorf("population = %d, want %d", len(w.Vehicles), cfg.Vehicles)
	}
	if len(w.Heads) != 10 || len(w.Authorities) != 2 {
		t.Errorf("infrastructure = %d heads, %d TAs", len(w.Heads), len(w.Authorities))
	}
	// Attacker placed in its cluster, destination out of its radio range.
	ax := w.Attacker.Mobile().PositionAt(0)
	if w.Topo.ClusterOf(ax) != 4 {
		t.Errorf("attacker at %v, want cluster 4", ax)
	}
	dx := w.Destination.Mobile().PositionAt(0)
	if ax.DistanceTo(dx) <= cfg.TxRangeM {
		t.Errorf("destination within attacker radio range: %v vs %v", ax, dx)
	}
	// Teammate within radio range of the primary.
	tx := w.Teammate.Mobile().PositionAt(0)
	if ax.DistanceTo(tx) > cfg.TxRangeM {
		t.Errorf("teammate out of the primary's range: %v vs %v", ax, tx)
	}
}

// TestNarrowHighwayBuilds: lanes sit at fixed fractions of the road's width,
// so a highway narrower than the paper's 200 m builds and runs, with every
// vehicle starting on the road.
func TestNarrowHighwayBuilds(t *testing.T) {
	for _, width := range []float64{100, 120, 139} {
		cfg := diffConfig()
		cfg.HighwayWidthM = width
		cfg.CryptoScheme = SchemePlaceholder
		w, err := Build(cfg)
		if err != nil {
			t.Fatalf("width %v: %v", width, err)
		}
		for _, v := range w.Vehicles {
			if p := v.Mobile().PositionAt(0); !w.Topo.Contains(p) {
				t.Errorf("width %v: vehicle starts off the road at %v", width, p)
			}
		}
		if o := w.Run(); o.EstablishStatus == "" {
			t.Errorf("width %v: the run never settled a route: %+v", width, o)
		}
		if err := w.CheckConservation(); err != nil {
			t.Errorf("width %v: %v", width, err)
		}
		w.Sched.Release()
	}
}
