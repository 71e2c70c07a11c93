package workload

import (
	"reflect"
	"testing"
)

func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 77} {
		for client := range Tenants {
			a, b := Plan(seed, client, 500), Plan(seed, client, 500)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d client %d: two plans differ", seed, client)
			}
			// A longer plan extends a shorter one, so the fixed prefix does
			// not depend on how long a run goes on.
			if short := Plan(seed, client, ServeFixedOps); !reflect.DeepEqual(short, a[:ServeFixedOps]) {
				t.Fatalf("seed %d client %d: the fixed prefix depends on the plan length", seed, client)
			}
		}
	}
	if reflect.DeepEqual(Plan(1, 0, 100), Plan(2, 0, 100)) {
		t.Fatal("seeds 1 and 2 give the same plan")
	}
	if reflect.DeepEqual(Plan(1, 0, 100), Plan(1, 1, 100)) {
		t.Fatal("both clients get the same plan")
	}
}

func TestPlanFollowsTheMix(t *testing.T) {
	const n = 20_000
	count := map[OpKind]int{}
	for _, op := range Plan(5, 0, n) {
		count[op.Kind]++
	}
	// Early repeats and re-tails with no target become fresh runs, so the
	// fresh share may exceed its weight by a little.
	for _, w := range mixWeights {
		got := 100 * float64(count[w.kind]) / n
		if got < float64(w.weight)-1.5 || got > float64(w.weight)+1.5 {
			t.Errorf("%v: %.1f%% of the plan, want %d%%", w.kind, got, w.weight)
		}
	}
}

func TestPlanTargetsAreEarlierOpsOfTheRightKind(t *testing.T) {
	plan := Plan(9, 1, 2000)
	fresh, sweeps := 0, 0
	for i, op := range plan {
		switch op.Kind {
		case OpRepeat:
			if op.Target >= i {
				t.Fatalf("op %d repeats a later op %d", i, op.Target)
			}
			if k := plan[op.Target].Kind; k != OpFresh && k != OpFreshSharded {
				t.Fatalf("op %d repeats a %v op", i, k)
			}
			newer := 0
			for _, o := range plan[op.Target+1 : i] {
				if o.Kind == OpFresh || o.Kind == OpFreshSharded {
					newer++
				}
			}
			if newer >= repeatWindow {
				t.Fatalf("op %d repeats a fresh run %d fresh runs back, beyond the window", i, newer+1)
			}
		case OpRetail:
			if op.Target >= i || plan[op.Target].Kind != OpSweep {
				t.Fatalf("op %d re-tails op %d, which is not an earlier sweep", i, op.Target)
			}
			if op.Offset < 0 || op.Offset > SweepReps+1 {
				t.Fatalf("op %d re-tails from line %d, past the result line", i, op.Offset)
			}
		case OpFresh, OpFreshSharded:
			fresh++
		case OpSweep:
			sweeps++
		}
	}
	if fresh == 0 || sweeps == 0 {
		t.Fatalf("plan has %d fresh runs and %d sweeps", fresh, sweeps)
	}
}

func TestDeriveSeedsArePositiveAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := Derive(3, "serve-job", i)
		if s <= 0 {
			t.Fatalf("derived seed %d is not positive", s)
		}
		if seen[s] {
			t.Fatalf("derived seed %d repeats", s)
		}
		seen[s] = true
	}
	if Derive(3, "a", 0) == Derive(3, "b", 0) {
		t.Fatal("labels do not separate derived seeds")
	}
}
