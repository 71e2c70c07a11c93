package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"blackdp/internal/metrics"
)

// The crypto differential wall. Three invariants pinned here:
//
//  1. The ECDSA outcome stream is pinned by a golden hash, so neither the
//     world's crypto memo nor anything else on the real-crypto path can
//     drift across releases. (TestCryptoMemoTransparent holds the memo
//     equal to direct crypto.)
//  2. The session-token scheme is its own pinned deterministic stream — and,
//     because every scheme frames its signature into the same fixed-width
//     wire slot, a session-token run is byte-identical to the ECDSA run of
//     the same seed (same frame sizes, same radio timing, same RNG draws).
//  3. Scheme choice never changes the protocol's verdict: detection,
//     isolation, false accusations and delivery agree across ECDSA,
//     session-token and placeholder, even though placeholder runs skip the
//     "crypto" RNG split and so see different radio noise.
//
// CI runs this file with -race; that is the proof that the memo and the
// session store introduce no shared state races under the sharded
// executor.

// cryptoDiffConfig is a scaled-down world (matching diffConfig) that still
// exercises detection, isolation, renewal relays and re-broadcast floods —
// every path that opens sealed envelopes — across 20 seeds in a few seconds.
func cryptoDiffConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.HighwayLengthM = 4000
	cfg.Vehicles = 30
	cfg.Authorities = 2
	cfg.AttackerCluster = 2
	cfg.DataPackets = 5
	cfg.MaxSimTime = 45 * time.Second
	return cfg
}

const cryptoDiffSeeds = 20

// Golden hashes of the JSON-marshalled outcome stream for seeds 1..20.
// Regenerate by logging cryptoStreamHash's input after an intentional
// behaviour change; an unintentional mismatch is a broken invariant.
const (
	cryptoECDSAGoldenHash   = "44d7d6c32dd61a2ff506a01267f3dcd5b22ac1332b16b1000af61907e87b3719"
	cryptoSessionGoldenHash = "44d7d6c32dd61a2ff506a01267f3dcd5b22ac1332b16b1000af61907e87b3719"
)

func cryptoStreamHash(t *testing.T, outcomes []metrics.Outcome) string {
	t.Helper()
	b, err := json.Marshal(outcomes)
	if err != nil {
		t.Fatalf("marshalling outcomes: %v", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestCryptoECDSAGoldenStream holds invariant 1: the stream of ECDSA
// outcomes matches the pinned golden hash.
func TestCryptoECDSAGoldenStream(t *testing.T) {
	outcomes := make([]metrics.Outcome, 0, cryptoDiffSeeds)
	for seed := int64(1); seed <= cryptoDiffSeeds; seed++ {
		out, err := Run(context.Background(), cryptoDiffConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		outcomes = append(outcomes, out)
	}
	if got := cryptoStreamHash(t, outcomes); got != cryptoECDSAGoldenHash {
		t.Errorf("ECDSA outcome stream drifted:\n got  %s\n want %s", got, cryptoECDSAGoldenHash)
	}
}

// TestCryptoSessionGoldenStream holds invariant 2: session-token runs are a
// pinned deterministic stream, and that stream coincides with the ECDSA one
// because both schemes occupy identical fixed-width signature frames and
// draw the same "crypto" RNG split.
func TestCryptoSessionGoldenStream(t *testing.T) {
	outcomes := make([]metrics.Outcome, 0, cryptoDiffSeeds)
	for seed := int64(1); seed <= cryptoDiffSeeds; seed++ {
		cfg := cryptoDiffConfig(seed)
		cfg.CryptoScheme = SchemeSession
		out, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		outcomes = append(outcomes, out)
	}
	if got := cryptoStreamHash(t, outcomes); got != cryptoSessionGoldenHash {
		t.Errorf("session-token outcome stream drifted:\n got  %s\n want %s", got, cryptoSessionGoldenHash)
	}
	// Replay determinism: the session store (epoch anchors, HMAC keys) must
	// leave no residue between runs.
	cfg := cryptoDiffConfig(7)
	cfg.CryptoScheme = SchemeSession
	first, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Errorf("session-token replay diverged:\n got  %+v\n want %+v", again, first)
	}
}

// cryptoVerdict is the scheme-independent slice of an outcome: what the
// protocol decided, not how many bytes the air carried while deciding it.
type cryptoVerdict struct {
	AttackersDetected int
	Detected          bool
	TeammateDetected  bool
	Prevented         bool
	FalseAccusations  int
	DetectionPackets  int
	IsolationPackets  int
	DataSent          int
	DataDelivered     int
}

func verdictOf(o metrics.Outcome) cryptoVerdict {
	return cryptoVerdict{
		AttackersDetected: o.AttackersDetected,
		Detected:          o.Detected,
		TeammateDetected:  o.TeammateDetected,
		Prevented:         o.Prevented,
		FalseAccusations:  o.FalseAccusations,
		DetectionPackets:  o.DetectionPackets,
		IsolationPackets:  o.IsolationPackets,
		DataSent:          o.DataSent,
		DataDelivered:     o.DataDelivered,
	}
}

// TestCryptoSchemeVerdictParity holds invariant 3: blacklist and verdict
// behaviour is identical under every scheme across 20 seeds.
func TestCryptoSchemeVerdictParity(t *testing.T) {
	for seed := int64(1); seed <= cryptoDiffSeeds; seed++ {
		base := cryptoDiffConfig(seed)
		base.CryptoScheme = SchemeECDSA
		ref, err := Run(context.Background(), base)
		if err != nil {
			t.Fatalf("seed %d ecdsa: %v", seed, err)
		}
		want := verdictOf(ref)
		for _, scheme := range []string{SchemeSession, SchemePlaceholder} {
			cfg := cryptoDiffConfig(seed)
			cfg.CryptoScheme = scheme
			out, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, scheme, err)
			}
			if got := verdictOf(out); got != want {
				t.Errorf("seed %d: scheme %s verdict diverged from ecdsa:\n got  %+v\n want %+v", seed, scheme, got, want)
			}
		}
	}
}

// TestCryptoShardedDeterminism extends the RunWorkers wall to real crypto,
// now that the Validate gate is lifted: sharded ECDSA and session-token runs
// must be deterministic and worker-count independent (one mutex-guarded
// memo per world, per-shard signing streams). Run with -race.
func TestCryptoShardedDeterminism(t *testing.T) {
	for _, scheme := range []string{SchemeECDSA, SchemeSession} {
		for seed := int64(1); seed <= 5; seed++ {
			base := cryptoDiffConfig(seed)
			base.CryptoScheme = scheme
			base.RunWorkers = 2
			want, err := Run(context.Background(), base)
			if err != nil {
				t.Fatalf("%s seed %d workers=2: %v", scheme, seed, err)
			}
			cfg := cryptoDiffConfig(seed)
			cfg.CryptoScheme = scheme
			cfg.RunWorkers = 4
			got, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s seed %d workers=4: %v", scheme, seed, err)
			}
			if got != want {
				t.Errorf("%s seed %d: workers=4 diverged from workers=2:\n got  %+v\n want %+v", scheme, seed, got, want)
			}
			again, err := Run(context.Background(), base)
			if err != nil {
				t.Fatalf("%s seed %d replay: %v", scheme, seed, err)
			}
			if again != want {
				t.Errorf("%s seed %d: sharded replay diverged:\n got  %+v\n want %+v", scheme, seed, again, want)
			}
		}
	}
}

// TestCryptoFingerprint pins the cache-key semantics of the scheme: it is
// part of a run's identity, and an empty scheme is the ecdsa default.
func TestCryptoFingerprint(t *testing.T) {
	fp := func(scheme string) string {
		cfg := cryptoDiffConfig(1)
		cfg.CryptoScheme = scheme
		s, err := Fingerprint(cfg)
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		return s
	}
	ecdsa, session, placeholder := fp(SchemeECDSA), fp(SchemeSession), fp(SchemePlaceholder)
	if ecdsa == session || ecdsa == placeholder || session == placeholder {
		t.Errorf("scheme classes must have distinct fingerprints: ecdsa=%s session=%s placeholder=%s", ecdsa, session, placeholder)
	}
	if fp("") != ecdsa {
		t.Error("an empty scheme should share the ecdsa fingerprint")
	}
}
