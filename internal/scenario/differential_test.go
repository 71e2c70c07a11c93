package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"blackdp/internal/exp"
)

// diffConfig is a cheap-but-real world for differential runs: a shorter
// highway (4 clusters), a thinner population and a tighter time budget keep
// each replication fast while still exercising detection end to end.
func diffConfig() Config {
	cfg := DefaultConfig()
	cfg.HighwayLengthM = 4000
	cfg.Vehicles = 30
	cfg.Authorities = 2
	cfg.AttackerCluster = 2
	cfg.DataPackets = 5
	cfg.MaxSimTime = 45 * time.Second
	return cfg
}

// TestRunSweepParallelMatchesSerial is the engine's acceptance gate: the
// full per-replication outcome records — not just aggregates — must be
// byte-identical between the serial path and a saturated pool.
func TestRunSweepParallelMatchesSerial(t *testing.T) {
	cfg := diffConfig()
	const reps = 4
	serial, err := RunSweep(context.Background(), cfg, 0, reps, SweepOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(context.Background(), cfg, 0, reps, SweepOptions{Workers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("outcomes diverged between workers=1 and workers=8:\n serial   %+v\n parallel %+v", serial, parallel)
	}
}

func TestRunFig4SweepParallelMatchesSerial(t *testing.T) {
	base := diffConfig()
	base.AttackerCluster = 0 // RunFig4 assigns clusters itself
	for _, kind := range []AttackKind{SingleBlackHole, CooperativeBlackHole} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			serial, err := RunFig4(context.Background(), base, kind, 2, SweepOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := RunFig4(context.Background(), base, kind, 2, SweepOptions{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("Fig4 points diverged:\n serial   %+v\n parallel %+v", serial, parallel)
			}
		})
	}
}

// fig4GoldenHash is the SHA-256 of the JSON-marshalled Fig4 sweep points for
// the fixed configuration below, recorded BEFORE the hot-path pooling work
// (event records, radio deliveries, codec scratch, per-worker reuse). The
// pools recycle memory but must never change event ordering or RNG draws, so
// the sweep output has to stay byte-identical across that refactor and any
// future one. If this test fails, a "performance" change altered simulation
// behaviour — that is a correctness bug, not a baseline to re-record.
const fig4GoldenHash = "30ca4f6ead11fe302a37ba22981ba074a8d9fe64dd14597a4e9cb3eee4b0b222"

func TestFig4SweepGoldenHash(t *testing.T) {
	base := DefaultConfig()
	base.HighwayLengthM = 4000
	base.Vehicles = 30
	base.DataPackets = 5
	base.MaxSimTime = 45 * time.Second
	base.Seed = 42
	assertFig4GoldenHash(t, base, reference{})
}

// assertFig4GoldenHash runs the pinned Fig4 sweep for base on the reference
// paths ref selects at two worker counts and holds the marshalled points to
// fig4GoldenHash. Shared with the spatial-index differential suite, which
// asserts the linear-scan reference reproduces the identical bytes.
func assertFig4GoldenHash(t *testing.T, base Config, ref reference) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		points, err := RunFig4(context.Background(), base, SingleBlackHole, 2, SweepOptions{Workers: workers, ref: ref})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(points)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != fig4GoldenHash {
			t.Errorf("workers=%d: Fig4 sweep hash = %s, want %s (simulation behaviour changed)", workers, got, fig4GoldenHash)
		}
	}
}

func TestCompareDetectorsSweepParallelMatchesSerial(t *testing.T) {
	cfg := diffConfig()
	serial, err := CompareDetectors(context.Background(), cfg, 3, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CompareDetectors(context.Background(), cfg, 3, SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("detector scores diverged:\n serial   %+v\n parallel %+v", serial, parallel)
	}
}

func TestFig5SeriesSweepParallelMatchesSerial(t *testing.T) {
	serial, err := Fig5Series(context.Background(), 3, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig5Series(context.Background(), 3, SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Fig5 series diverged:\n serial   %+v\n parallel %+v", serial, parallel)
	}
}

// TestRunSweepMutateOrder pins the mutate contract the parallel engine
// must preserve: mutate hooks run serially in replication order, before
// any world executes, so they may touch caller state without locking.
func TestRunSweepMutateOrder(t *testing.T) {
	cfg := diffConfig()
	var order []int
	_, err := RunSweep(context.Background(), cfg, 0, 3, SweepOptions{Workers: 8},
		func(rep int, c *Config) { order = append(order, rep) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Errorf("mutate hooks ran in order %v", order)
	}
}

// TestSweepPanicIdentifiesReplication checks a crashing replication fails
// with its replication index and seed attached — the attribution RunSweep
// relies on when a world panics mid-run — instead of killing the sweep.
func TestSweepPanicIdentifiesReplication(t *testing.T) {
	cfg := diffConfig()
	outcomes, err := exp.Map(context.Background(), 3, exp.Options{
		Workers: 2,
		SeedOf:  func(rep int) int64 { return cfg.Seed + int64(rep)*7919 },
	}, func(_ context.Context, rep int) (int, error) {
		if rep == 1 {
			panic("scheduler invariant violated")
		}
		return rep, nil
	})
	if outcomes != nil {
		t.Error("results returned alongside a panicking replication")
	}
	var pe *exp.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *exp.PanicError", err)
	}
	if pe.Rep != 1 || pe.Seed != cfg.Seed+7919 {
		t.Errorf("panic attributed to rep %d seed %d, want rep 1 seed %d", pe.Rep, pe.Seed, cfg.Seed+7919)
	}
}

func TestRunSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSweep(ctx, diffConfig(), 0, 4, SweepOptions{Workers: 2}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}
