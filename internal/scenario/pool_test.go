package scenario

import (
	"context"
	"errors"
	"testing"

	"blackdp/internal/sim"
)

// TestPoolBoundAcrossReplications pins the Release contract of pooled
// worlds: a worker's event pool grows until it covers the largest queue one
// replication holds, then stops, because every world hands the events still
// pending back to the pool when it is done. That holds for finished
// replications, cancelled ones, builds that fail after scheduling and the
// compare path's discovery worlds. A world that skipped Release would keep
// its pending records out of the pool for good, and the count would climb
// with every replication.
//
// Each check replays the same seeds on one pool, so a pool that recycles
// every record sees exactly the queues it has already covered and must not
// allocate a single record more.
func TestPoolBoundAcrossReplications(t *testing.T) {
	ctx := context.Background()
	cfg := rangeTestConfig(5)
	const reps = 20

	pool := sim.NewEventPool()
	opt := SweepOptions{Workers: 1, pool: pool}
	sweep := func() {
		t.Helper()
		if _, err := RunSweep(ctx, cfg, 0, reps, opt, nil); err != nil {
			t.Fatal(err)
		}
	}
	sweep()
	covered := pool.Records()
	for round := 1; round < 5; round++ {
		sweep()
		if got := pool.Records(); got != covered {
			t.Fatalf("sweep round %d: pool grew from %d records after rep %d to %d", round+1, covered, reps, got)
		}
	}

	// Cancelled runs and failed builds of the same worlds hold no more than
	// the queue their full replication passes through.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	bad := cfg
	bad.SpeedMinKmh, bad.SpeedMaxKmh = -10, -10 // valid config; vehicles cannot move
	for round := 0; round < 3; round++ {
		for rep := 0; rep < reps; rep++ {
			c := cfg
			c.Seed = cfg.Seed + int64(rep)*7919
			if _, err := runPooled(cancelled, c, pool, nil, reference{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
			}
			bad.Seed = c.Seed
			if _, err := buildPooled(bad, pool, nil, reference{}); err == nil {
				t.Fatal("build with negative speeds succeeded")
			}
		}
	}
	if got := pool.Records(); got != covered {
		t.Errorf("cancelled runs and failed builds grew the pool from %d to %d records", covered, got)
	}

	pool = sim.NewEventPool()
	opt.pool = pool
	compare := func() {
		t.Helper()
		if _, err := CompareDetectors(ctx, cfg, reps, opt); err != nil {
			t.Fatal(err)
		}
	}
	compare()
	covered = pool.Records()
	for round := 1; round < 3; round++ {
		compare()
		if got := pool.Records(); got != covered {
			t.Fatalf("compare round %d: pool grew from %d records to %d", round+1, covered, got)
		}
	}
}
