package scenario

import (
	"context"
	"testing"
)

// metroConfig scales a grid-city world to the given vehicle count at
// roughly constant density (~100 vehicles per cluster, the Table I
// density), so the 1k/10k/100k curve measures how run cost scales with
// world size. Free signatures and a short horizon keep the benchmark about
// the simulator, not the crypto.
func metroConfig(vehicles, rowsCols int) Config {
	cfg := DefaultConfig()
	cfg.Topology = "grid"
	cfg.GridRows = rowsCols
	cfg.GridCols = rowsCols
	cfg.Vehicles = vehicles
	cfg.CryptoScheme = SchemePlaceholder
	cfg.DataPackets = 2
	cfg.MaxSimTime = 10e9 // 10 simulated seconds
	return cfg
}

func benchmarkMetroRun(b *testing.B, vehicles, rowsCols, runWorkers int) {
	cfg := metroConfig(vehicles, rowsCols)
	cfg.RunWorkers = runWorkers
	b.ReportMetric(float64(2*rowsCols*rowsCols), "clusters")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The metro scaling curve: grid worlds of 18, 98 and 1058 clusters. The
// 100k point is the tentpole's acceptance run — a 100,000-vehicle,
// 1000+-cluster metro simulated on one machine.
func BenchmarkMetroRun1k(b *testing.B)   { benchmarkMetroRun(b, 1_000, 3, 1) }
func BenchmarkMetroRun10k(b *testing.B)  { benchmarkMetroRun(b, 10_000, 7, 1) }
func BenchmarkMetroRun100k(b *testing.B) { benchmarkMetroRun(b, 100_000, 23, 1) }

// The intra-run parallelism curve: the same worlds on the cluster-sharded
// executor at 2, 4 and 8 workers. Workers beyond the host's core count add
// only scheduling overhead — compare against GOMAXPROCS when reading the
// numbers, and against the serial benchmarks above for the sharding tax.
func BenchmarkMetroRun1kWorkers2(b *testing.B)   { benchmarkMetroRun(b, 1_000, 3, 2) }
func BenchmarkMetroRun1kWorkers4(b *testing.B)   { benchmarkMetroRun(b, 1_000, 3, 4) }
func BenchmarkMetroRun1kWorkers8(b *testing.B)   { benchmarkMetroRun(b, 1_000, 3, 8) }
func BenchmarkMetroRun10kWorkers2(b *testing.B)  { benchmarkMetroRun(b, 10_000, 7, 2) }
func BenchmarkMetroRun10kWorkers4(b *testing.B)  { benchmarkMetroRun(b, 10_000, 7, 4) }
func BenchmarkMetroRun10kWorkers8(b *testing.B)  { benchmarkMetroRun(b, 10_000, 7, 8) }
func BenchmarkMetroRun100kWorkers2(b *testing.B) { benchmarkMetroRun(b, 100_000, 23, 2) }
func BenchmarkMetroRun100kWorkers4(b *testing.B) { benchmarkMetroRun(b, 100_000, 23, 4) }
func BenchmarkMetroRun100kWorkers8(b *testing.B) { benchmarkMetroRun(b, 100_000, 23, 8) }
