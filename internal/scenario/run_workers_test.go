package scenario

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// The sharded equality wall. The pinned invariant (DESIGN.md): RunWorkers <= 1
// is the legacy serial path, byte-identical across releases (the golden-hash
// and differential suites hold that); RunWorkers >= 2 is the cluster-sharded
// conservative PDES, whose outcomes are deterministic and independent of the
// exact worker count — 2, 4 and 8 workers must produce byte-identical
// outcomes, because the shard layout is fixed and the mail merge order is a
// pure function of the simulation. Run with -race: the wall doubles as the
// proof that the window barriers sequence every cross-shard access.

// shardedConfig is a sharded-eligible scenario: placeholder crypto (the one
// hard requirement), everything else the paper's Table I world.
func shardedConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.CryptoScheme = SchemePlaceholder
	return cfg
}

func TestRunWorkersCountIndependence(t *testing.T) {
	seeds := make([]int64, 0, 20)
	for s := int64(1); s <= 20; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		base := shardedConfig(seed)
		base.RunWorkers = 2
		want, err := Run(context.Background(), base)
		if err != nil {
			t.Fatalf("seed %d workers=2: %v", seed, err)
		}
		for _, workers := range []int{4, 8} {
			cfg := shardedConfig(seed)
			cfg.RunWorkers = workers
			got, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			if got != want {
				t.Errorf("seed %d: workers=%d diverged from workers=2:\n got  %+v\n want %+v", seed, workers, got, want)
			}
		}
	}
}

func TestRunWorkersReplayDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 11, 17} {
		cfg := shardedConfig(seed)
		cfg.RunWorkers = 4
		first, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if first != again {
			t.Errorf("seed %d: sharded replay diverged:\n got  %+v\n want %+v", seed, again, first)
		}
	}
}

// TestRunWorkersGridTopology drives the sharded executor through a 2D road
// mesh — different cluster geometry, different strip partition — and holds
// worker-count independence plus the channel conservation ledger there too.
func TestRunWorkersGridTopology(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		base := shardedConfig(seed)
		base.Topology = "grid"
		base.GridRows, base.GridCols = 3, 3
		base.RunWorkers = 2
		w, err := Build(base)
		if err != nil {
			t.Fatalf("seed %d build: %v", seed, err)
		}
		want := w.Run()
		if err := w.CheckConservation(); err != nil {
			t.Fatalf("seed %d conservation: %v", seed, err)
		}
		cfg := base
		cfg.RunWorkers = 8
		got, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d workers=8: %v", seed, err)
		}
		if got != want {
			t.Errorf("seed %d grid: workers=8 diverged from workers=2:\n got  %+v\n want %+v", seed, got, want)
		}
	}
}

// TestRunWorkersSerialEquivalence pins workers 0 and 1 to the same mode: both
// must run the legacy serial scheduler and produce byte-identical outcomes.
func TestRunWorkersSerialEquivalence(t *testing.T) {
	for _, seed := range []int64{2, 9} {
		zero := shardedConfig(seed)
		want, err := Run(context.Background(), zero)
		if err != nil {
			t.Fatalf("seed %d workers=0: %v", seed, err)
		}
		one := shardedConfig(seed)
		one.RunWorkers = 1
		got, err := Run(context.Background(), one)
		if err != nil {
			t.Fatalf("seed %d workers=1: %v", seed, err)
		}
		if got != want {
			t.Errorf("seed %d: workers=1 diverged from workers=0:\n got  %+v\n want %+v", seed, got, want)
		}
	}
}

func TestRunWorkersConservation(t *testing.T) {
	for _, seed := range []int64{1, 4, 13} {
		cfg := shardedConfig(seed)
		cfg.RunWorkers = 4
		w, err := Build(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_ = w.Run()
		if err := w.CheckConservation(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestRunWorkersValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"trace", func(c *Config) { c.Trace = true }, "Trace"},
		{"unknown scheme", func(c *Config) { c.CryptoScheme = "rot13" }, "crypto scheme"},
	}
	for _, tc := range cases {
		cfg := shardedConfig(1)
		cfg.RunWorkers = 4
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
	// Real crypto is no longer gated: verification state is per-agent and
	// signing randomness per-shard, so every scheme shards cleanly.
	for _, scheme := range []string{"", SchemeECDSA, SchemeSession, SchemePlaceholder} {
		ok := shardedConfig(1)
		ok.RunWorkers = 4
		ok.CryptoScheme = scheme
		if err := ok.Validate(); err != nil {
			t.Errorf("sharded config with scheme %q rejected: %v", scheme, err)
		}
	}
	// The linear-scan reference path reads the medium without the
	// sharded executor's spatial-index refresh, so the build refuses it.
	cfg := shardedConfig(1)
	cfg.RunWorkers = 4
	if _, err := buildPooled(cfg, nil, nil, reference{linearScan: true}); err == nil || !strings.Contains(err.Error(), "spatial index") {
		t.Errorf("sharded linear-scan build: err = %v, want error mentioning %q", err, "spatial index")
	}
}

// TestReconcileWorkers pins the budget split between the sweep pool and
// intra-run shard workers: the product stays within GOMAXPROCS, intra-run
// shrinks first (floor 2), the sweep pool shrinks last (floor 1), and a
// config's execution mode — serial vs sharded — is never changed.
func TestReconcileWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	t.Run("serial sweeps pass through", func(t *testing.T) {
		cfgs := []Config{shardedConfig(1), shardedConfig(2)}
		cfgs[1].RunWorkers = 1
		if got := reconcileWorkers(5, cfgs); got != 5 {
			t.Errorf("reconcileWorkers = %d, want 5 untouched", got)
		}
		if cfgs[0].RunWorkers != 0 || cfgs[1].RunWorkers != 1 {
			t.Errorf("serial configs mutated: %d, %d", cfgs[0].RunWorkers, cfgs[1].RunWorkers)
		}
	})

	t.Run("intra-run shrinks first", func(t *testing.T) {
		cfgs := []Config{shardedConfig(1)}
		cfgs[0].RunWorkers = 4
		if got := reconcileWorkers(4, cfgs); got != 4 {
			t.Errorf("sweep pool = %d, want 4 (intra-run should absorb the clamp)", got)
		}
		if cfgs[0].RunWorkers != 2 {
			t.Errorf("RunWorkers = %d, want 2", cfgs[0].RunWorkers)
		}
	})

	t.Run("sweep pool shrinks after intra-run floors", func(t *testing.T) {
		cfgs := []Config{shardedConfig(1)}
		cfgs[0].RunWorkers = 8
		if got := reconcileWorkers(8, cfgs); got != 4 {
			t.Errorf("sweep pool = %d, want 4 (8 pool x 2 run > 8 procs)", got)
		}
		if cfgs[0].RunWorkers != 2 {
			t.Errorf("RunWorkers = %d, want 2", cfgs[0].RunWorkers)
		}
	})

	t.Run("zero sweep workers means one per CPU", func(t *testing.T) {
		cfgs := []Config{shardedConfig(1)}
		cfgs[0].RunWorkers = 2
		if got := reconcileWorkers(0, cfgs); got != 4 {
			t.Errorf("sweep pool = %d, want 4 (8 procs / 2 run workers)", got)
		}
	})

	t.Run("mixed modes clamp only sharded configs", func(t *testing.T) {
		cfgs := []Config{shardedConfig(1), shardedConfig(2)}
		cfgs[0].RunWorkers = 1
		cfgs[1].RunWorkers = 8
		_ = reconcileWorkers(8, cfgs)
		if cfgs[0].RunWorkers != 1 {
			t.Errorf("serial config switched mode: RunWorkers = %d", cfgs[0].RunWorkers)
		}
		if cfgs[1].RunWorkers < 2 {
			t.Errorf("sharded config left sharded mode: RunWorkers = %d", cfgs[1].RunWorkers)
		}
	})
}

// TestRunWorkersSweep drives sharded runs through the replication pool: a
// sweep of sharded configs must yield exactly the outcomes of running each
// replication alone, with the reconciled budget applied underneath.
func TestRunWorkersSweep(t *testing.T) {
	base := shardedConfig(31)
	base.RunWorkers = 2
	got, err := RunSweep(context.Background(), base, 0, 3, SweepOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for rep, o := range got {
		cfg := base
		cfg.Seed = base.Seed + int64(rep)*7919
		want, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if o != want {
			t.Errorf("rep %d: sweep outcome diverged from solo run:\n got  %+v\n want %+v", rep, o, want)
		}
	}
}

// TestRunWorkersFingerprint pins the cache-key equivalence classes: every
// serial worker count shares one fingerprint, every sharded count another,
// and the two classes differ (sharded runs draw per-shard RNG streams, so
// they are a distinct mode with distinct results).
func TestRunWorkersFingerprint(t *testing.T) {
	fp := func(workers int) string {
		cfg := shardedConfig(1)
		cfg.RunWorkers = workers
		s, err := Fingerprint(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return s
	}
	if fp(0) != fp(1) {
		t.Error("workers 0 and 1 should share the serial fingerprint")
	}
	if fp(2) != fp(8) {
		t.Error("workers 2 and 8 should share the sharded fingerprint")
	}
	if fp(1) == fp(2) {
		t.Error("serial and sharded modes must have distinct fingerprints")
	}
}
