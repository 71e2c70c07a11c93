package scenario

import (
	"context"
	"testing"
	"time"

	"blackdp/internal/sim"
)

// TestSoakInvariants drives randomized configurations through full runs and
// checks the properties that must hold in every single one:
//
//   - no false accusations, ever (BlackDP's conviction standard is a
//     protocol violation an honest node cannot commit);
//   - with no attacker, nothing is detected and nothing revoked;
//   - detection-packet counts, when a detection ran, stay within the
//     protocol's structural bounds;
//   - the run terminates within its simulated-time budget.
func TestSoakInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := sim.NewRNG(99)
	for i := 0; i < 18; i++ {
		cfg := DefaultConfig()
		cfg.Seed = rng.Int63()
		cfg.Vehicles = 40 + rng.IntN(80)
		cfg.AttackerCluster = rng.IntN(10) + 1
		cfg.DataPackets = rng.IntN(8)
		cfg.MaxSimTime = 60 * time.Second
		switch rng.IntN(4) {
		case 0:
			cfg.Attack = NoAttack
		case 1:
			cfg.Attack = CooperativeBlackHole
		case 2:
			cfg.Attack = SingleBlackHole
			cfg.EvasiveClusters = []int{8, 9, 10}
		default:
			cfg.Attack = SingleBlackHole
			cfg.ExtraAttackers = rng.IntN(3)
		}
		if rng.Bool(0.3) {
			cfg.LossRate = 0.01
		}
		if rng.Bool(0.3) {
			cfg.CryptoScheme = SchemePlaceholder
		}

		o, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("run %d (%+v): %v", i, cfg.Attack, err)
		}
		if o.FalseAccusations != 0 {
			t.Errorf("run %d seed %d: %d FALSE ACCUSATIONS", i, cfg.Seed, o.FalseAccusations)
		}
		if cfg.Attack == NoAttack {
			if o.Detected || o.AttackersDetected != 0 {
				t.Errorf("run %d: detection without an attacker", i)
			}
		}
		if o.DetectionPackets != 0 && (o.DetectionPackets < 4 || o.DetectionPackets > 20) {
			t.Errorf("run %d: %d detection packets outside structural bounds", i, o.DetectionPackets)
		}
		if o.Duration > cfg.MaxSimTime+time.Second {
			t.Errorf("run %d: overran the time budget: %v", i, o.Duration)
		}
		if o.AttackersDetected > o.AttackersPresent {
			t.Errorf("run %d: detected %d of %d attackers", i, o.AttackersDetected, o.AttackersPresent)
		}
	}
}
