package blackdp_test

import (
	"context"
	"reflect"
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

// TestPublicAPISweepOptions checks the functional options drive every
// sweep: onRep fires once per replication, mutate fires for Sweep (the only
// call that takes it), and any worker count is byte-identical.
func TestPublicAPISweepOptions(t *testing.T) {
	cfg := blackdp.DefaultConfig()
	cfg.HighwayLengthM = 4000
	cfg.Vehicles = 30
	cfg.AttackerCluster = 2
	cfg.DataPackets = 5
	ctx := context.Background()

	cases := []struct {
		name    string
		reps    int // replications the call runs
		mutated int // mutate calls it makes
		run     func(opts ...blackdp.Option) (any, error)
	}{
		{"Sweep", 3, 3, func(opts ...blackdp.Option) (any, error) {
			return blackdp.Sweep(ctx, cfg, 3, opts...)
		}},
		{"Fig4", 4, 0, func(opts ...blackdp.Option) (any, error) {
			return blackdp.Fig4(ctx, cfg, blackdp.SingleBlackHole, 1, opts...)
		}},
		{"Fig5", len(blackdp.Fig5Categories()), 0, func(opts ...blackdp.Option) (any, error) {
			return blackdp.Fig5(ctx, cfg.Seed, opts...)
		}},
		{"CompareDetectors", 2, 0, func(opts ...blackdp.Option) (any, error) {
			return blackdp.CompareDetectors(ctx, cfg, 2, opts...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reps, mutated []int
			serial, err := tc.run(
				blackdp.WithWorkers(1),
				blackdp.WithOnRep(func(rep int, err error) {
					if err == nil {
						reps = append(reps, rep)
					}
				}),
				blackdp.WithMutate(func(rep int, c *blackdp.Config) { mutated = append(mutated, rep) }))
			if err != nil {
				t.Fatal(err)
			}
			if len(reps) != tc.reps || len(mutated) != tc.mutated {
				t.Errorf("callbacks fired reps=%v mutated=%v, want %d and %d",
					reps, mutated, tc.reps, tc.mutated)
			}
			for i, rep := range reps {
				if rep != i {
					t.Fatalf("serial onRep saw replications %v, want 0..%d in order", reps, tc.reps-1)
				}
			}

			parallel, err := tc.run(blackdp.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatal("results diverged across worker counts")
			}
		})
	}
}
