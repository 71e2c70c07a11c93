package scenario

import (
	"fmt"
	"testing"
)

// The frame digest wall. The outcome walls hash what a run decided; this one
// hashes every frame copy the radio delivered — arrival time, receiver
// pseudonym and payload bytes — so a change to delivery order, timing or any
// signed byte shows even when every verdict survives it. Signatures are
// deterministic (RFC 6979) and keys are a pure function of their streams, so
// a seed fixes every frame.

// frameDigest runs cfg with the medium's delivery hash on and returns it.
func frameDigest(t *testing.T, cfg Config) string {
	t.Helper()
	w, err := Build(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	w.Env.Medium.DigestFrames()
	w.Run()
	return fmt.Sprintf("%x", w.Env.Medium.FrameDigest())
}

// TestFrameDigestReplays holds that two runs of one seed deliver the same
// frames, byte for byte, under every scheme and on both executors. Lossy
// cooperative worlds are the ones that once drew nondeterministic signature
// nonces into certificates.
func TestFrameDigestReplays(t *testing.T) {
	for _, scheme := range []string{SchemeECDSA, SchemeSession, SchemePlaceholder} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", scheme, workers), func(t *testing.T) {
				for seed := int64(1); seed <= 20; seed++ {
					cfg := cryptoDiffConfig(seed)
					cfg.CryptoScheme = scheme
					cfg.RunWorkers = workers
					cfg.LossRate = 0.2
					if seed%2 == 0 {
						cfg.Attack = CooperativeBlackHole
					}
					if a, b := frameDigest(t, cfg), frameDigest(t, cfg); a != b {
						t.Errorf("seed %d: frame digest %s, replay %s", seed, a, b)
					}
				}
			})
		}
	}
}

// tableIFrameDigest pins every frame delivered in the paper's Table I world
// (DefaultConfig, seed 1, ECDSA). Regenerate only for an intentional change
// to what goes on the air; an unexplained mismatch is a broken invariant.
const tableIFrameDigest = "af8dd219c5d3506e711d176a54a02ce95e813cee0e534f1f61cfa4fd0ac47289"

func TestFrameDigestGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	if got := frameDigest(t, cfg); got != tableIFrameDigest {
		t.Errorf("Table I frame digest = %s, want %s", got, tableIFrameDigest)
	}
}
