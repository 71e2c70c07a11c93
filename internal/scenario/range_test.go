package scenario

import (
	"context"
	"reflect"
	"testing"
	"time"

	"blackdp/internal/metrics"
)

// rangeTestConfig is a fast Table-I-style world for the chunked-range
// differential: small enough to sweep hundreds of replications in tests,
// full enough to exercise attacker placement and detection.
func rangeTestConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		HighwayLengthM:  4000,
		Vehicles:        30,
		AttackerCluster: 2,
		DataPackets:     5,
		MaxSimTime:      45 * time.Second,
		CryptoScheme:    SchemePlaceholder,
	}
}

// TestRunSweepRangeMatchesFull is the chunking correctness proof the
// distributed fabric builds on: concatenating the outcomes of contiguous
// range RunSweep calls — any chunk size, any worker count — reproduces one
// full-range RunSweep exactly, because seeds derive from global replication
// indexes alone.
func TestRunSweepRangeMatchesFull(t *testing.T) {
	ctx := context.Background()
	const reps = 13
	for _, seed := range []int64{1, 42, 90210} {
		cfg := rangeTestConfig(seed)
		full, err := RunSweep(ctx, cfg, 0, reps, SweepOptions{Workers: 1}, nil)
		if err != nil {
			t.Fatalf("seed %d: full sweep: %v", seed, err)
		}
		for _, size := range []int{1, 3, 5, 13} {
			var merged []metrics.Outcome
			for start := 0; start < reps; start += size {
				count := size
				if start+count > reps {
					count = reps - start
				}
				part, err := RunSweep(ctx, cfg, start, count, SweepOptions{Workers: 2}, nil)
				if err != nil {
					t.Fatalf("seed %d size %d start %d: %v", seed, size, start, err)
				}
				merged = append(merged, part...)
			}
			if !reflect.DeepEqual(merged, full) {
				t.Errorf("seed %d: chunk size %d concatenation diverged from the full sweep", seed, size)
			}
		}
	}
}

// TestRunSweepRangeGlobalIndexes pins the hook contract: OnRep and mutate
// both see global replication indexes, never chunk-relative offsets.
func TestRunSweepRangeGlobalIndexes(t *testing.T) {
	cfg := rangeTestConfig(7)
	seenMutate := map[int]bool{}
	var seenOnRep []int
	_, err := RunSweep(context.Background(), cfg, 10, 4, SweepOptions{
		Workers: 1,
		OnRep:   func(rep int, err error) { seenOnRep = append(seenOnRep, rep) },
	}, func(rep int, c *Config) { seenMutate[rep] = true })
	if err != nil {
		t.Fatal(err)
	}
	for rep := 10; rep < 14; rep++ {
		if !seenMutate[rep] {
			t.Errorf("mutate never saw global rep %d (saw %v)", rep, seenMutate)
		}
	}
	want := []int{10, 11, 12, 13}
	if !reflect.DeepEqual(seenOnRep, want) {
		t.Errorf("OnRep saw %v, want %v", seenOnRep, want)
	}
}

// TestRunSweepRangeRejectsNegativeStart pins the validation edge.
func TestRunSweepRangeRejectsNegativeStart(t *testing.T) {
	if _, err := RunSweep(context.Background(), rangeTestConfig(1), -1, 4, SweepOptions{}, nil); err == nil {
		t.Fatal("negative start accepted")
	}
}
