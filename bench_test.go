// Benchmarks regenerating the paper's evaluation, one per table/figure plus
// the DESIGN.md ablations. Each iteration executes complete simulation
// runs, so ns/op measures the cost of reproducing one data point; the
// figures themselves are regenerated by cmd/blackdp-experiments.
package blackdp_test

import (
	"context"
	"fmt"
	"testing"

	"blackdp"
)

// BenchmarkTableIRun: one full Table I scenario (100 vehicles, 10 RSUs,
// single black hole, detection, isolation, data delivery).
func BenchmarkTableIRun(b *testing.B) {
	cfg := blackdp.DefaultConfig()
	cfg.AttackerCluster = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		o, err := blackdp.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !o.Detected {
			b.Fatalf("seed %d: attacker not detected", cfg.Seed)
		}
	}
}

// BenchmarkTableIBuild: constructing one Table I world under ECDSA without
// running it — topology, authorities, heads and 100 provisioned vehicles.
// Credentials are minted on first signature, so this prices issuance only.
func BenchmarkTableIBuild(b *testing.B) {
	cfg := blackdp.DefaultConfig()
	cfg.AttackerCluster = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := blackdp.Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SingleAttack: one Figure 4 data point (single black hole)
// per attacker-cluster regime: near the source, mid-highway, and the
// evasive tail.
func BenchmarkFig4SingleAttack(b *testing.B) {
	for _, cluster := range []int{1, 5, 9} {
		b.Run(fmt.Sprintf("cluster=%d", cluster), func(b *testing.B) {
			cfg := blackdp.DefaultConfig()
			cfg.AttackerCluster = cluster
			cfg.EvasiveClusters = []int{8, 9, 10}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				if _, err := blackdp.Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Sweep: one Figure 4 grid (single black hole, six
// replications per attacker cluster) on two sweep workers, the regime the
// figure is regenerated in. Each worker runs its replications one after
// another on a shared event pool, so B/op shows what the pool recycles and
// what every replication still allocates under a live collector.
func BenchmarkFig4Sweep(b *testing.B) {
	const reps = 6
	cfg := blackdp.DefaultConfig()
	worlds := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		points, err := blackdp.Fig4(context.Background(), cfg, blackdp.SingleBlackHole, reps, blackdp.WithWorkers(2))
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("empty Figure 4 grid")
		}
		worlds += len(points) * reps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(worlds), "ns/rep")
}

// BenchmarkFig4CooperativeAttack: one cooperative Figure 4 data point.
func BenchmarkFig4CooperativeAttack(b *testing.B) {
	for _, cluster := range []int{2, 9} {
		b.Run(fmt.Sprintf("cluster=%d", cluster), func(b *testing.B) {
			cfg := blackdp.DefaultConfig()
			cfg.Attack = blackdp.CooperativeBlackHole
			cfg.AttackerCluster = cluster
			cfg.EvasiveClusters = []int{8, 9, 10}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				if _, err := blackdp.Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5DetectionPackets: one engineered Figure 5 scenario per
// class, asserting the paper's packet count on every iteration.
func BenchmarkFig5DetectionPackets(b *testing.B) {
	for _, cat := range blackdp.Fig5Categories() {
		b.Run(cat.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := blackdp.RunFig5(cat, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if res.Packets != cat.PaperPackets() {
					b.Fatalf("seed %d: %d packets, paper reports %d", i+1, res.Packets, cat.PaperPackets())
				}
			}
		})
	}
}

// BenchmarkBaselineComparison: the connector ablation — a modestly
// inflating bridge attacker that defeats every sequence-number baseline.
func BenchmarkBaselineComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := blackdp.RunConnector(int64(i+1), 30)
		if err != nil {
			b.Fatal(err)
		}
		if !res.BlackDPDetected {
			b.Fatalf("seed %d: BlackDP missed the connector attacker", i+1)
		}
	}
}

// BenchmarkCryptoOverhead: full runs under real ECDSA P-256 versus the free
// placeholder scheme, quantifying the cryptographic share of the paper's
// SIII-C overhead concern.
func BenchmarkCryptoOverhead(b *testing.B) {
	for _, row := range []struct{ name, scheme string }{
		{"ecdsa-p256", blackdp.SchemeECDSA},
		{"insecure-digest", blackdp.SchemePlaceholder},
	} {
		b.Run(row.name, func(b *testing.B) {
			cfg := blackdp.DefaultConfig()
			cfg.AttackerCluster = 4
			cfg.CryptoScheme = row.scheme
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				if _, err := blackdp.Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHonestBaseline: the no-attack control — protocol overhead with
// nothing to detect.
func BenchmarkHonestBaseline(b *testing.B) {
	cfg := blackdp.DefaultConfig()
	cfg.Attack = blackdp.NoAttack
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := blackdp.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlainAODVUnderAttack: the undefended control — same world,
// verification off (every data packet dies in the black hole).
func BenchmarkPlainAODVUnderAttack(b *testing.B) {
	cfg := blackdp.DefaultConfig()
	cfg.AttackerCluster = 4
	cfg.Vehicle.Verify = false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		o, err := blackdp.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if o.Detected {
			b.Fatal("plain AODV cannot detect")
		}
	}
}
