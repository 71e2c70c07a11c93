package scenario

import (
	"reflect"
	"testing"
	"time"

	"blackdp/internal/fault"
	"blackdp/internal/metrics"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// propertySeeds is how many randomized worlds each property is checked
// against. Placeholder signatures keep a seed's run in the low tens of
// milliseconds, so the whole suite stays fast even under -race.
const propertySeeds = 20

// propConfig is a cheap randomized world for property runs: a 4-cluster
// highway, a thin population, free signatures.
func propConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.HighwayLengthM = 4000
	cfg.Vehicles = 30
	cfg.Authorities = 2
	cfg.CryptoScheme = SchemePlaceholder
	cfg.DataPackets = 5
	cfg.MaxSimTime = 45 * time.Second
	return cfg
}

// randomPlan derives a fault plan from the seed: every seed gets a different
// but reproducible mix of head crashes, link cuts and channel impairments.
func randomPlan(seed int64, clusters int) fault.Plan {
	rng := sim.NewRNG(seed).Split("property-plan")
	var p fault.Plan
	if rng.Bool(0.7) {
		crash := fault.HeadCrash{
			Cluster: rng.IntN(clusters) + 1,
			At:      rng.Duration(500*time.Millisecond, 5*time.Second),
		}
		if rng.Bool(0.5) {
			crash.RecoverAt = crash.At + rng.Duration(2*time.Second, 15*time.Second)
		}
		p.HeadCrashes = append(p.HeadCrashes, crash)
	}
	if rng.Bool(0.5) {
		cut := fault.LinkCut{
			Link: rng.IntN(clusters-1) + 1,
			At:   rng.Duration(500*time.Millisecond, 5*time.Second),
		}
		if rng.Bool(0.5) {
			cut.HealAt = cut.At + rng.Duration(2*time.Second, 15*time.Second)
		}
		p.LinkCuts = append(p.LinkCuts, cut)
	}
	if rng.Bool(0.6) {
		p.Burst = fault.BurstLoss{
			LossBad:   rng.Range(0.05, 0.3),
			GoodToBad: rng.Range(0.02, 0.1),
			BadToGood: rng.Range(0.1, 0.4),
		}
	}
	if rng.Bool(0.4) {
		p.DuplicateProb = rng.Range(0.01, 0.05)
	}
	if rng.Bool(0.4) {
		p.ReorderProb = rng.Range(0.01, 0.05)
		p.ReorderMax = rng.Duration(time.Millisecond, 5*time.Millisecond)
	}
	return p
}

// runChecked builds and runs cfg with the scheduler invariant checker
// installed and audits the packet ledgers afterwards: the engine contract and
// frame conservation are checked on every property run, not just dedicated
// tests.
func runChecked(t *testing.T, cfg Config) (*World, metrics.Outcome) {
	t.Helper()
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checker := sim.NewInvariantChecker(w.Sched)
	o := w.Run()
	if err := checker.Err(); err != nil {
		t.Error(err)
	}
	if err := w.CheckConservation(); err != nil {
		t.Error(err)
	}
	return w, o
}

// infrastructureIDs collects every node identity that must never appear on a
// blacklist: cluster heads and trusted authorities.
func infrastructureIDs(w *World) map[wire.NodeID]bool {
	ids := make(map[wire.NodeID]bool)
	for _, h := range w.Heads {
		ids[h.NodeID()] = true
	}
	for _, ta := range w.Authorities {
		ids[ta.NodeID()] = true
	}
	return ids
}

// TestPropertyNoFalsePositivesUnderFaults: an attacker-free world must never
// isolate anyone, no matter which faults are injected — crashes, cuts and
// lossy channels may delay or abort detection, never invent a conviction.
func TestPropertyNoFalsePositivesUnderFaults(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds; seed++ {
		cfg := propConfig(seed * 1031)
		cfg.Attack = NoAttack
		cfg.Fault = randomPlan(cfg.Seed, 4)
		w, o := runChecked(t, cfg)
		if o.FalseAccusations != 0 {
			t.Errorf("seed %d: %d false accusations in an attacker-free run (plan %+v)",
				cfg.Seed, o.FalseAccusations, cfg.Fault)
		}
		for cid, h := range w.Heads {
			if n := len(h.Membership().Blacklist()); n != 0 {
				t.Errorf("seed %d: head %d blacklisted %d nodes with no attacker present",
					cfg.Seed, cid, n)
			}
		}
	}
}

// TestPropertyIdenticalSeedAndPlanIdenticalResults: a run is a pure function
// of (seed, config, fault plan) — replaying it must reproduce the outcome
// record byte for byte, faults and all.
func TestPropertyIdenticalSeedAndPlanIdenticalResults(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds; seed++ {
		cfg := propConfig(seed * 7577)
		cfg.Fault = randomPlan(cfg.Seed, 4)
		_, first := runChecked(t, cfg)
		_, second := runChecked(t, cfg)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("seed %d: outcomes differ between identical runs:\n first  %+v\n second %+v",
				cfg.Seed, first, second)
		}
	}
}

// TestPropertyBlacklistsGrowAndNeverNameInfrastructure: sampled throughout
// adversarial fault runs, every head's blacklist is monotone non-decreasing
// (revocations never vanish mid-run; certificate expiry is an hour away) and
// never contains a cluster head or authority identity.
func TestPropertyBlacklistsGrowAndNeverNameInfrastructure(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds; seed++ {
		cfg := propConfig(seed * 4099)
		cfg.Fault = randomPlan(cfg.Seed, 4)
		w, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		infra := infrastructureIDs(w)
		sizes := make(map[wire.ClusterID]int)
		var sample func()
		sample = func() {
			for cid, h := range w.Heads {
				bl := h.Membership().Blacklist()
				if len(bl) < sizes[cid] {
					t.Errorf("seed %d: head %d blacklist shrank from %d to %d at %v",
						cfg.Seed, cid, sizes[cid], len(bl), w.Sched.Now())
				}
				sizes[cid] = len(bl)
				for _, rc := range bl {
					if infra[rc.Node] {
						t.Errorf("seed %d: head %d blacklisted infrastructure node %v",
							cfg.Seed, cid, rc.Node)
					}
				}
			}
			if w.Sched.Now() < cfg.MaxSimTime {
				w.Sched.After(time.Second, sample)
			}
		}
		w.Sched.After(time.Second, sample)
		w.Run()
		sample() // final state
	}
}
