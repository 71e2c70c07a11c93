package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"blackdp/internal/metrics"
)

// indexDiffConfig is diffConfig with free signatures: the grid-vs-linear
// differential needs many full sweeps, and the spatial index is orthogonal
// to the crypto scheme.
func indexDiffConfig() Config {
	cfg := diffConfig()
	cfg.CryptoScheme = SchemePlaceholder
	return cfg
}

// TestGridIndexDifferential is the tentpole's proof of invisibility: the
// full Fig-4 sweep must be byte-identical between the grid-hash spatial
// index (the default) and the retained linear scan, across many seeds. Any
// divergence means the index changed delivery order or RNG draws — a
// correctness bug, never a baseline to re-record.
func TestGridIndexDifferential(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	base := indexDiffConfig()
	base.AttackerCluster = 0
	for s := 0; s < seeds; s++ {
		base.Seed = int64(1000 + 37*s)
		gp, err := RunFig4(context.Background(), base, SingleBlackHole, 1, SweepOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		lp, err := RunFig4(context.Background(), base, SingleBlackHole, 1,
			SweepOptions{Workers: 4, ref: reference{linearScan: true}})
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(gp)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := json.Marshal(lp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, lb) {
			t.Fatalf("seed %d: grid index diverged from linear scan:\n grid   %s\n linear %s", base.Seed, gb, lb)
		}
	}
}

// TestLinearScanGoldenHash holds the retained linear-scan path to the same
// pre-index golden hash as TestFig4SweepGoldenHash: the escape hatch is the
// reference implementation, so it must still reproduce the recorded bytes.
func TestLinearScanGoldenHash(t *testing.T) {
	base := DefaultConfig()
	base.HighwayLengthM = 4000
	base.Vehicles = 30
	base.DataPackets = 5
	base.MaxSimTime = 45 * time.Second
	base.Seed = 42
	assertFig4GoldenHash(t, base, reference{linearScan: true})
}

// TestRunSweepStreamMatchesRetained holds the streaming sweep to the
// retained path: folding outcomes as they complete must produce the exact
// aggregate report that collecting every outcome and aggregating afterwards
// does, at any worker count.
func TestRunSweepStreamMatchesRetained(t *testing.T) {
	cfg := indexDiffConfig()
	const reps = 6
	outcomes, err := RunSweep(context.Background(), cfg, 0, reps, SweepOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.Aggregate(outcomes).Report()
	for _, workers := range []int{1, 8} {
		stream, err := RunSweepStream(context.Background(), cfg, reps, SweepOptions{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := stream.Report(); got != want {
			t.Fatalf("workers=%d: streamed report diverged:\n got  %+v\nwant %+v", workers, got, want)
		}
	}
}
