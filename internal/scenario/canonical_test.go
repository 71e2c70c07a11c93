package scenario

import (
	"testing"
	"time"
)

// Equal configs must fingerprint equally, and the fingerprint must be a pure
// function of the config value.
func TestFingerprintDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AttackerCluster = 4
	a, err := Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config fingerprinted differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint %q is not hex SHA-256", a)
	}
}

// A zero field and its explicit default describe the same run, so they must
// share a fingerprint.
func TestFingerprintAppliesDefaults(t *testing.T) {
	sparse := Config{Seed: 7, Attack: SingleBlackHole, AttackerCluster: 3,
		Vehicle:      DefaultConfig().Vehicle,
		ActLegitProb: 0.15, FleeProb: 0.3, RenewProb: 0.15, DataPackets: 10}
	full := DefaultConfig()
	full.Seed = 7
	full.AttackerCluster = 3

	a, err := Fingerprint(sparse)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(full)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("defaults-filled and sparse config diverge:\n  sparse %s\n  full   %s", a, b)
	}
}

// Nested defaults follow the same rule: an omitted Vehicle.DReqRetries and
// its spelled-out default 1 share a key; the -1 ablation does not.
func TestFingerprintNestedDefaults(t *testing.T) {
	fp := func(retries int) string {
		cfg := DefaultConfig()
		cfg.Vehicle.DReqRetries = retries
		f, err := Fingerprint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if fp(0) != fp(1) {
		t.Error("DReqRetries 0 and its default 1 fingerprint differently")
	}
	if fp(-1) == fp(1) {
		t.Error("the DReqRetries -1 ablation shares the default's fingerprint")
	}
}

// EvasiveClusters is a set: order and duplicates must not affect the key.
func TestFingerprintEvasiveClustersAreASet(t *testing.T) {
	a := DefaultConfig()
	a.EvasiveClusters = []int{10, 8, 9, 8}
	b := DefaultConfig()
	b.EvasiveClusters = []int{8, 9, 10}
	fa, err := Fingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Fingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatal("evasive-cluster order changed the fingerprint")
	}

	// Empty and nil both mean "no evasive clusters".
	c := DefaultConfig()
	c.EvasiveClusters = []int{}
	d := DefaultConfig()
	d.EvasiveClusters = nil
	fc, _ := Fingerprint(c)
	fd, _ := Fingerprint(d)
	if fc != fd {
		t.Fatal("empty vs nil EvasiveClusters split the fingerprint")
	}
}

// Tracing only observes a run, so it must not change the key; everything
// that changes the run — seed, attack, fault plan — must.
func TestFingerprintSensitivity(t *testing.T) {
	base := DefaultConfig()
	base.AttackerCluster = 2
	ref, err := Fingerprint(base)
	if err != nil {
		t.Fatal(err)
	}

	traced := base
	traced.Trace = true
	if f, _ := Fingerprint(traced); f != ref {
		t.Fatal("Trace flag changed the fingerprint")
	}

	for name, mutate := range map[string]func(*Config){
		"seed":   func(c *Config) { c.Seed = 99 },
		"attack": func(c *Config) { c.Attack = CooperativeBlackHole },
		"fault":  func(c *Config) { c.Fault = CrashPlan(2, time.Second, 0) },
		"loss":   func(c *Config) { c.LossRate = 0.05 },
	} {
		c := base
		mutate(&c)
		f, err := Fingerprint(c)
		if err != nil {
			t.Fatal(err)
		}
		if f == ref {
			t.Fatalf("changing %s left the fingerprint unchanged", name)
		}
	}
}

// Invalid configs must not canonicalise.
func TestFingerprintRejectsInvalid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossRate = 2
	if _, err := Fingerprint(cfg); err == nil {
		t.Fatal("expected validation error")
	}
}

// Canonicalising must not mutate the caller's slice.
func TestCanonicalDoesNotMutateInput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EvasiveClusters = []int{10, 8, 9}
	if _, err := Canonical(cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.EvasiveClusters[0] != 10 {
		t.Fatal("Canonical sorted the caller's EvasiveClusters in place")
	}
}
