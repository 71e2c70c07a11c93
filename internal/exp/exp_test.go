package exp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestMapReturnsResultsInReplicationOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := Map(context.Background(), 32, Options{Workers: workers},
				func(_ context.Context, rep int) (int, error) { return rep * rep, nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 32 {
				t.Fatalf("got %d results, want 32", len(got))
			}
			for rep, v := range got {
				if v != rep*rep {
					t.Errorf("result[%d] = %d, want %d", rep, v, rep*rep)
				}
			}
		})
	}
}

func TestMapSerialAndParallelIdentical(t *testing.T) {
	fn := func(_ context.Context, rep int) (int64, error) {
		// A deterministic function of the replication index alone, like a
		// seeded world: scheduling must not leak into the result.
		return Seed(42, "diff", rep), nil
	}
	serial, err := Map(context.Background(), 64, Options{Workers: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(context.Background(), 64, Options{Workers: 8}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serial and parallel sweeps diverged:\n serial   %v\n parallel %v", serial, parallel)
	}
}

func TestMapZeroReps(t *testing.T) {
	got, err := Map(context.Background(), 0, Options{},
		func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("Map(0 reps) = %v, %v; want nil, nil", got, err)
	}
}

func TestMapWorkersOneRunsInline(t *testing.T) {
	// The serial path must execute on the calling goroutine in replication
	// order — it is the reference implementation the parallel path is
	// measured against.
	var order []int
	_, err := Map(context.Background(), 5, Options{Workers: 1},
		func(_ context.Context, rep int) (int, error) {
			order = append(order, rep) // no locking: single goroutine
			return rep, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("serial execution order %v", order)
	}
}

func TestMapReportsLowestFailingReplication(t *testing.T) {
	failAt := map[int]bool{3: true, 7: true, 11: true}
	fn := func(_ context.Context, rep int) (int, error) {
		if failAt[rep] {
			return 0, fmt.Errorf("rep %d failed", rep)
		}
		return rep, nil
	}
	for _, workers := range []int{1, 8} {
		got, err := Map(context.Background(), 16, Options{Workers: workers}, fn)
		if got != nil {
			t.Errorf("workers=%d: results returned alongside error", workers)
		}
		if err == nil || err.Error() != "rep 3 failed" {
			t.Errorf("workers=%d: error = %v, want the lowest failing replication (rep 3)", workers, err)
		}
	}
}

func TestMapCapturesPanicWithRepAndSeed(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), 8, Options{
			Workers: workers,
			SeedOf:  func(rep int) int64 { return 1000 + int64(rep) },
		}, func(_ context.Context, rep int) (int, error) {
			if rep == 2 {
				panic("world exploded")
			}
			return rep, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error = %v, want *PanicError", workers, err)
		}
		if pe.Rep != 2 || pe.Seed != 1002 || pe.Value != "world exploded" {
			t.Errorf("workers=%d: PanicError = rep %d seed %d value %v", workers, pe.Rep, pe.Seed, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
	}
}

func TestMapPanicDoesNotKillOtherReplications(t *testing.T) {
	// Every replication must still be attempted: the sweep fails with the
	// panicking replication's error, not by tearing down the pool.
	var mu sync.Mutex
	ran := map[int]bool{}
	_, err := Map(context.Background(), 10, Options{Workers: 4},
		func(_ context.Context, rep int) (int, error) {
			mu.Lock()
			ran[rep] = true
			mu.Unlock()
			if rep == 0 {
				panic("first replication down")
			}
			return rep, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Rep != 0 {
		t.Fatalf("error = %v, want PanicError for rep 0", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 10 {
		t.Errorf("only %d/10 replications attempted after the panic", len(ran))
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	started := 0
	_, err := Map(ctx, 1000, Options{Workers: 4},
		func(ctx context.Context, rep int) (int, error) {
			mu.Lock()
			started++
			if started == 8 {
				cancel()
			}
			mu.Unlock()
			return rep, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if started == 1000 {
		t.Error("cancellation did not stop the sweep early")
	}
}

func TestMapOnRepSeesEveryReplicationOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		seen := map[int]int{} // rep -> calls; OnRep is serialised, no lock
		failures := map[int]bool{}
		_, err := Map(context.Background(), 24, Options{
			Workers: workers,
			OnRep: func(rep int, err error) {
				seen[rep]++
				if err != nil {
					failures[rep] = true
				}
			},
		}, func(_ context.Context, rep int) (int, error) {
			if rep == 5 {
				return 0, errors.New("rep 5 failed")
			}
			return rep, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected the rep 5 failure", workers)
		}
		if workers == 1 {
			// The serial path stops at the first failure, after reporting it.
			if len(seen) != 6 || !failures[5] {
				t.Fatalf("workers=1: OnRep saw reps %v (failures %v), want 0..5 with 5 failed", seen, failures)
			}
			continue
		}
		if len(seen) != 24 {
			t.Fatalf("workers=%d: OnRep saw %d reps, want 24", workers, len(seen))
		}
		for rep, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: OnRep saw rep %d %d times", workers, rep, n)
			}
		}
		if len(failures) != 1 || !failures[5] {
			t.Fatalf("workers=%d: OnRep failures %v, want exactly rep 5", workers, failures)
		}
	}
}

func TestSeedIsOrderIndependentAndLabelled(t *testing.T) {
	if Seed(1, "fig4", 42) != Seed(1, "fig4", 42) {
		t.Error("Seed is not a pure function")
	}
	if Seed(1, "fig4", 42) == Seed(1, "fig5", 42) {
		t.Error("different labels should decorrelate streams")
	}
	if Seed(1, "fig4", 42) == Seed(1, "fig4", 43) {
		t.Error("different replications should draw different seeds")
	}
	if Seed(1, "fig4", 42) == Seed(2, "fig4", 42) {
		t.Error("different base seeds should draw different seeds")
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

// TestMapScratchOnePerWorker pins the scratch lifecycle: newScratch runs
// exactly once per worker goroutine, each worker's replications all see the
// same scratch value, and no worker sees another worker's scratch.
func TestMapScratchOnePerWorker(t *testing.T) {
	const reps, workers = 32, 4
	var (
		mu     sync.Mutex
		made   []int           // worker indexes newScratch was called with
		usedBy = map[int]int{} // scratch worker index -> replication count
	)
	type scratch struct{ worker int }
	_, err := MapScratch(context.Background(), reps, Options{Workers: workers},
		func(worker int) *scratch {
			mu.Lock()
			made = append(made, worker)
			mu.Unlock()
			return &scratch{worker: worker}
		},
		func(_ context.Context, rep int, s *scratch) (int, error) {
			mu.Lock()
			usedBy[s.worker]++
			mu.Unlock()
			return rep, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(made) != workers {
		t.Fatalf("newScratch called %d times, want once per worker (%d)", len(made), workers)
	}
	sort.Ints(made)
	if !reflect.DeepEqual(made, []int{0, 1, 2, 3}) {
		t.Errorf("newScratch saw worker indexes %v, want [0 1 2 3]", made)
	}
	total := 0
	for _, n := range usedBy {
		total += n
	}
	if total != reps {
		t.Errorf("replications executed with a scratch = %d, want %d", total, reps)
	}
}

// TestMapScratchSerialReuse checks Workers == 1 builds a single scratch
// (worker 0) and threads it through every replication of the serial loop.
func TestMapScratchSerialReuse(t *testing.T) {
	calls := 0
	var seen []*int
	results, err := MapScratch(context.Background(), 5, Options{Workers: 1},
		func(worker int) *int {
			calls++
			if worker != 0 {
				t.Errorf("serial scratch built for worker %d, want 0", worker)
			}
			return new(int)
		},
		func(_ context.Context, rep int, s *int) (int, error) {
			seen = append(seen, s)
			*s++
			return *s, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("newScratch called %d times, want 1", calls)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] != seen[0] {
			t.Fatal("serial replications did not share one scratch")
		}
	}
	if !reflect.DeepEqual(results, []int{1, 2, 3, 4, 5}) {
		t.Errorf("results = %v (scratch state should persist across reps)", results)
	}
}

// TestMapScratchPanicCarriesAttribution mirrors Map's panic contract through
// the scratch-aware path.
func TestMapScratchPanicCarriesAttribution(t *testing.T) {
	_, err := MapScratch(context.Background(), 3, Options{
		Workers: 2,
		SeedOf:  func(rep int) int64 { return 100 + int64(rep) },
	},
		func(int) struct{} { return struct{}{} },
		func(_ context.Context, rep int, _ struct{}) (int, error) {
			if rep == 2 {
				panic("boom")
			}
			return rep, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *PanicError", err)
	}
	if pe.Rep != 2 || pe.Seed != 102 {
		t.Errorf("panic attributed to rep %d seed %d, want rep 2 seed 102", pe.Rep, pe.Seed)
	}
}
