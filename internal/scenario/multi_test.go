package scenario

import (
	"context"
	"testing"
)

func TestMultipleAttackersDetectedSequentially(t *testing.T) {
	// The paper's attack model allows several independent black holes.
	// With each isolation the next freshest forger wins the route race and
	// gets reported in turn; the workload's re-establishment budget lets
	// the source peel them off one by one.
	cfg := DefaultConfig()
	cfg.Seed = 31
	cfg.AttackerCluster = 2
	cfg.ExtraAttackers = 2
	o, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.AttackersPresent != 3 {
		t.Fatalf("AttackersPresent = %d, want 3", o.AttackersPresent)
	}
	if o.FalseAccusations != 0 {
		t.Errorf("false accusations: %d", o.FalseAccusations)
	}
	if !o.Detected {
		t.Error("primary attacker not detected")
	}
	if o.AttackersDetected < 2 {
		t.Errorf("AttackersDetected = %d, want at least the two on the route path", o.AttackersDetected)
	}
	if o.EstablishStatus != "verified" {
		t.Errorf("final status = %q; the source should eventually hold a clean route", o.EstablishStatus)
	}
	if o.DataSent == 0 || float64(o.DataDelivered) < 0.8*float64(o.DataSent) {
		t.Errorf("delivery %d/%d after isolating multiple attackers", o.DataDelivered, o.DataSent)
	}
}

func TestExtraAttackersValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExtraAttackers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative ExtraAttackers accepted")
	}
	cfg.ExtraAttackers = cfg.Vehicles // far beyond the quarter-fleet cap
	if err := cfg.Validate(); err == nil {
		t.Error("absurd ExtraAttackers accepted")
	}
}
