package exp_test

import (
	"context"
	"testing"
	"time"

	"blackdp/internal/exp"
	"blackdp/internal/scenario"
)

// benchConfig is the differential suite's small-but-real world: 4 clusters,
// 30 vehicles, full detection pipeline.
func benchConfig() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.HighwayLengthM = 4000
	cfg.Vehicles = 30
	cfg.AttackerCluster = 2
	cfg.DataPackets = 5
	cfg.MaxSimTime = 45 * time.Second
	return cfg
}

// benchSweep measures one 8-replication sweep end to end (world build,
// discrete-event run, outcome extraction per replication).
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		outcomes, err := scenario.RunSweep(context.Background(), cfg, 0, 8,
			scenario.SweepOptions{Workers: workers}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(outcomes) != 8 {
			b.Fatalf("%d outcomes", len(outcomes))
		}
	}
}

// BenchmarkSweepSerial is the pre-engine baseline: every replication on one
// goroutine. Compare against BenchmarkSweepParallel* for the speedup on
// your hardware; the differential tests guarantee the outputs are
// identical, so the ratio is pure wall-clock gain.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel4 fixes four workers — the ISSUE's reference point
// (≥2x on a 4-core runner).
func BenchmarkSweepParallel4(b *testing.B) { benchSweep(b, 4) }

// BenchmarkSweepParallel uses one worker per CPU, the -workers default.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, exp.DefaultWorkers()) }

// BenchmarkMapOverhead isolates the pool's own cost: empty replications,
// so anything measured is scheduling overhead per replication.
func BenchmarkMapOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := exp.Map(context.Background(), 64, exp.Options{Workers: exp.DefaultWorkers()},
			func(context.Context, int) (int, error) { return 0, nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
