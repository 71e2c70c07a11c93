package scenario

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"blackdp/internal/pki"
)

// TestCryptoMemoTransparent holds that a sweep's shared crypto memo is
// invisible: the Figure 4 grid (both attack kinds), a replication sweep and
// the frames of worlds that share a seed come out identical with the memo
// and with every signature and verification computed. The memo must also
// actually hit, or the comparison proves nothing. CI runs it under -race,
// where the grid's worlds share one memo across workers.
func TestCryptoMemoTransparent(t *testing.T) {
	ctx := context.Background()
	base := cryptoDiffConfig(1)
	direct := SweepOptions{Workers: 2, ref: reference{directCrypto: true}}

	memo := pki.NewMemo()
	for _, kind := range []AttackKind{SingleBlackHole, CooperativeBlackHole} {
		got, err := RunFig4(ctx, base, kind, 3, SweepOptions{Workers: 2, memo: memo})
		if err != nil {
			t.Fatalf("%v with memo: %v", kind, err)
		}
		want, err := RunFig4(ctx, base, kind, 3, direct)
		if err != nil {
			t.Fatalf("%v direct: %v", kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Figure 4 grid with memo differs from direct crypto:\n got  %+v\n want %+v", kind, got, want)
		}
	}
	if s := memo.Stats(); s.SignHits == 0 || s.VerifyHits == 0 {
		t.Errorf("memo never hit across the grid: %+v", s)
	}

	// A replication sweep's seeds are distinct, so it shares no memo (each
	// world keeps its own); hand it one to hold the shared path equal too.
	mutate := func(rep int, c *Config) { c.Attack = []AttackKind{SingleBlackHole, CooperativeBlackHole}[rep%2] }
	got, err := RunSweep(ctx, base, 0, 6, SweepOptions{Workers: 2, memo: pki.NewMemo()}, mutate)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSweep(ctx, base, 0, 6, direct, mutate)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep with memo differs from direct crypto:\n got  %+v\n want %+v", got, want)
	}

	// Frames: one seed's worlds across attacker clusters and both
	// executors, built back to back on one memo, against builds with none
	// at all.
	memo = pki.NewMemo()
	for c := 1; c <= 4; c++ {
		for _, workers := range []int{0, 2} {
			cfg := base
			cfg.AttackerCluster = c
			cfg.RunWorkers = workers
			if got, want := memoFrameDigest(t, cfg, memo), memoFrameDigest(t, cfg, nil); got != want {
				t.Errorf("cluster %d, RunWorkers %d: frame digest %s with memo, %s direct", c, workers, got, want)
			}
		}
	}
	if s := memo.Stats(); s.SignHits == 0 || s.VerifyHits == 0 {
		t.Errorf("memo never hit across one seed's worlds: %+v", s)
	}
}

// TestSweepMemoNeedsSharedSeed holds that a sweep builds a memo only when
// two of its ECDSA worlds share a seed: the Figure 4 grid does, a
// replication sweep and the non-ECDSA schemes do not.
func TestSweepMemoNeedsSharedSeed(t *testing.T) {
	base := cryptoDiffConfig(1)
	placeholder := base
	placeholder.CryptoScheme = SchemePlaceholder
	fig4 := append(replicate(base, 0, 3, nil), replicate(base, 0, 3, nil)...)
	for _, tc := range []struct {
		name string
		opt  SweepOptions
		cfgs []Config
		want bool
	}{
		{"replication sweep", SweepOptions{}, replicate(base, 0, 6, nil), false},
		{"figure 4 grid", SweepOptions{}, fig4, true},
		{"placeholder twins", SweepOptions{}, []Config{placeholder, placeholder}, false},
		{"direct crypto", SweepOptions{ref: reference{directCrypto: true}}, fig4, false},
	} {
		if got := sweepMemo(tc.opt, tc.cfgs) != nil; got != tc.want {
			t.Errorf("%s: memo built = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// memoFrameDigest is frameDigest for a world built on memo; a nil memo
// computes every signature and verification.
func memoFrameDigest(t *testing.T, cfg Config, memo *pki.Memo) string {
	t.Helper()
	w, err := buildPooled(cfg, nil, memo, reference{directCrypto: memo == nil})
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	w.Env.Medium.DigestFrames()
	w.Run()
	return fmt.Sprintf("%x", w.Env.Medium.FrameDigest())
}

// TestBuildOwnsECDSAMemo holds that a world no sweep hands a memo verifies
// through its own: the Table I world's agents verify some certificates more
// than once, and the repeats hit. The direct-crypto reference gets no memo.
func TestBuildOwnsECDSAMemo(t *testing.T) {
	w, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Sched.Release()
	memo := w.Env.Scheme.(pki.ECDSA).Memo
	if memo == nil {
		t.Fatal("a plain Build of an ECDSA world has no memo")
	}
	w.Run()
	if s := memo.Stats(); s.VerifyHits == 0 {
		t.Errorf("the world's memo never hit: %+v", s)
	}

	direct, err := buildPooled(DefaultConfig(), nil, nil, reference{directCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Sched.Release()
	if memo := direct.Env.Scheme.(pki.ECDSA).Memo; memo != nil {
		t.Error("the direct-crypto reference world has a memo")
	}
}
