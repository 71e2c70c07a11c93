package blackdp_test

import (
	"context"
	"testing"

	"blackdp"
)

func TestPublicAPIQuickRun(t *testing.T) {
	cfg := blackdp.DefaultConfig()
	cfg.Seed = 1
	cfg.AttackerCluster = 2
	o, err := blackdp.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.AttackerPresent || !o.Detected {
		t.Errorf("outcome = %+v, want a detected attacker", o)
	}
}

func TestPublicAPITableI(t *testing.T) {
	params := blackdp.TableI()
	if len(params) != 7 {
		t.Fatalf("Table I has %d rows, want 7", len(params))
	}
	cfg := blackdp.DefaultConfig()
	if cfg.Vehicles != 100 || cfg.HighwayLengthM != 10_000 || cfg.TxRangeM != 1000 ||
		cfg.ClusterLengthM != 1000 || cfg.HighwayWidthM != 200 ||
		cfg.SpeedMinKmh != 50 || cfg.SpeedMaxKmh != 90 {
		t.Errorf("DefaultConfig diverges from Table I: %+v", cfg)
	}
}

func TestPublicAPIAggregate(t *testing.T) {
	cfg := blackdp.DefaultConfig()
	cfg.AttackerCluster = 3
	outcomes, err := blackdp.Sweep(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := blackdp.Aggregate(outcomes)
	if s.Runs != 2 {
		t.Errorf("summary runs = %d", s.Runs)
	}
	grouped := blackdp.ByCluster(outcomes)
	if len(grouped) != 1 {
		t.Errorf("ByCluster groups = %d, want 1", len(grouped))
	}
}

func TestPublicAPIFig5(t *testing.T) {
	res, err := blackdp.RunFig5(blackdp.Fig5SingleLocal, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != blackdp.Fig5SingleLocal.PaperPackets() {
		t.Errorf("packets = %d, want %d", res.Packets, blackdp.Fig5SingleLocal.PaperPackets())
	}
	if len(blackdp.Fig5Categories()) != 8 {
		t.Error("category list incomplete")
	}
}

func TestPublicAPIBuildWorld(t *testing.T) {
	cfg := blackdp.DefaultConfig()
	cfg.Attack = blackdp.CooperativeBlackHole
	cfg.AttackerCluster = 5
	w, err := blackdp.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Source == nil || w.Attacker == nil || w.Teammate == nil {
		t.Error("world roles missing")
	}
}

// TestPublicAPISweepOptions checks the functional options drive the sweep:
// progress/onRep/mutate all fire, and any worker count is byte-identical.
func TestPublicAPISweepOptions(t *testing.T) {
	cfg := blackdp.DefaultConfig()
	cfg.HighwayLengthM = 4000
	cfg.Vehicles = 30
	cfg.AttackerCluster = 2
	cfg.DataPackets = 5
	ctx := context.Background()

	var progress, reps, mutated []int
	serial, err := blackdp.Sweep(ctx, cfg, 3,
		blackdp.WithWorkers(1),
		blackdp.WithProgress(func(done, total int) { progress = append(progress, done) }),
		blackdp.WithOnRep(func(rep int, err error) {
			if err == nil {
				reps = append(reps, rep)
			}
		}),
		blackdp.WithMutate(func(rep int, c *blackdp.Config) { mutated = append(mutated, rep) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) != 3 || len(reps) != 3 || len(mutated) != 3 {
		t.Errorf("callbacks fired progress=%v reps=%v mutated=%v, want 3 each", progress, reps, mutated)
	}

	parallel, err := blackdp.Sweep(ctx, cfg, 3, blackdp.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("rep %d: outcomes diverged across worker counts", i)
		}
	}
}
