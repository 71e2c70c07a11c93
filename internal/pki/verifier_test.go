package pki

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// verifierFixture builds an authority, two credentials and a sealed envelope
// factory under the given scheme.
type verifierFixture struct {
	trust  *TrustStore
	auth   *Authority
	scheme Scheme
	creds  []*Credential
}

func newVerifierFixture(t testing.TB, scheme Scheme, nCreds int) *verifierFixture {
	t.Helper()
	trust := NewTrustStore()
	auth, err := NewAuthority(1, trust, func() time.Duration { return 0 }, scheme, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	f := &verifierFixture{trust: trust, auth: auth, scheme: scheme}
	for i := 0; i < nCreds; i++ {
		cred, err := auth.Issue("veh", time.Hour, newDetReader(int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		f.creds = append(f.creds, cred)
	}
	return f
}

func (f *verifierFixture) seal(t testing.TB, cred *Credential, seq uint32) *wire.Secure {
	t.Helper()
	sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: wire.SeqNum(seq), Issuer: cred.NodeID()}, cred, f.scheme)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// assertSameOpen checks that the cached verifier agrees with the uncached
// package-level Open on packet, certificate and error class.
func assertSameOpen(t *testing.T, v *Verifier, sec *wire.Secure, now time.Duration, trust *TrustStore, scheme Scheme) {
	t.Helper()
	wantPkt, wantCert, wantErr := Open(sec, trust, now, scheme)
	gotPkt, gotCert, gotErr := v.Open(sec, now)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("cached err = %v, uncached err = %v", gotErr, wantErr)
	}
	if wantErr != nil {
		for _, class := range []error{ErrBadSignature, ErrBadCertificate, ErrCertExpired, ErrUnknownAuthority} {
			if errors.Is(wantErr, class) != errors.Is(gotErr, class) {
				t.Fatalf("error class mismatch: cached %v, uncached %v", gotErr, wantErr)
			}
		}
		return
	}
	if !reflect.DeepEqual(gotPkt, wantPkt) {
		t.Fatalf("packet mismatch: cached %+v, uncached %+v", gotPkt, wantPkt)
	}
	if !reflect.DeepEqual(gotCert, wantCert) {
		t.Fatalf("cert mismatch: cached %+v, uncached %+v", gotCert, wantCert)
	}
}

// TestVerifierMatchesOpen holds cached and uncached verification to the same
// verdicts across valid, tampered, forged, expired and malformed envelopes —
// on a cold cache, and again after every envelope has been seen once (a warm
// cache must not change a single verdict).
func TestVerifierMatchesOpen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme Scheme
	}{
		{"ecdsa", ECDSA{}},
		{"insecure", Insecure{}},
		{"session", NewSessionToken()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newVerifierFixture(t, tc.scheme, 2)
			valid := f.seal(t, f.creds[0], 10)
			other := f.seal(t, f.creds[1], 11)

			tamperedInner := f.seal(t, f.creds[0], 12)
			tamperedInner.Inner[len(tamperedInner.Inner)-1] ^= 0x01

			tamperedSig := f.seal(t, f.creds[0], 13)
			tamperedSig.Signature[5] ^= 0x40

			swappedSig := f.seal(t, f.creds[0], 14)
			swappedSig.Signature = append([]byte(nil), other.Signature...)

			forgedCert := f.seal(t, f.creds[0], 15)
			forgedCert.Cert.Signature = append([]byte(nil), forgedCert.Cert.Signature...)
			forgedCert.Cert.Signature[3] ^= 0x80

			unknownAuth := f.seal(t, f.creds[0], 16)
			unknownAuth.Cert.Authority = 42

			promotedNode := f.seal(t, f.creds[0], 17)
			promotedNode.Cert.Node++ // claims a pseudonym the TA never signed

			cases := []struct {
				name string
				sec  *wire.Secure
				now  time.Duration
			}{
				{"valid", valid, 0},
				{"valid other sender", other, 0},
				{"tampered inner", tamperedInner, 0},
				{"tampered signature", tamperedSig, 0},
				{"signature from other envelope", swappedSig, 0},
				{"forged certificate signature", forgedCert, 0},
				{"unknown authority", unknownAuth, 0},
				{"promoted pseudonym", promotedNode, 0},
				{"expired certificate", valid, 2 * time.Hour},
				{"nil envelope", nil, 0},
			}
			v := NewVerifier(f.trust, f.scheme, VerifierOptions{})
			for pass := 0; pass < 2; pass++ { // cold, then warm
				for _, c := range cases {
					t.Run(c.name, func(t *testing.T) {
						assertSameOpen(t, v, c.sec, c.now, f.trust, f.scheme)
					})
				}
			}
		})
	}
}

// TestVerifierNoLaundering drives the adversarial cases against a cache that
// has already accepted the honest envelopes: nothing a cached success proves
// may transfer to tampered payloads, forged or expired certificates.
func TestVerifierNoLaundering(t *testing.T) {
	scheme := ECDSA{}
	f := newVerifierFixture(t, scheme, 2)
	v := NewVerifier(f.trust, scheme, VerifierOptions{})

	a := f.seal(t, f.creds[0], 1)
	b := f.seal(t, f.creds[1], 2)
	for _, sec := range []*wire.Secure{a, b} {
		if _, _, err := v.Open(sec, 0); err != nil {
			t.Fatalf("honest open: %v", err)
		}
		if _, _, err := v.Open(sec, 0); err != nil { // warm the envelope cache
			t.Fatalf("honest reopen: %v", err)
		}
	}

	t.Run("tampered payload after cached success", func(t *testing.T) {
		bad := *a
		bad.Inner = append([]byte(nil), a.Inner...)
		bad.Inner[0] ^= 0xff
		if _, _, err := v.Open(&bad, 0); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("signature swapped between cached envelopes", func(t *testing.T) {
		bad := *a
		bad.Signature = b.Signature
		if _, _, err := v.Open(&bad, 0); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("certificate swapped between cached envelopes", func(t *testing.T) {
		bad := *a
		bad.Cert = b.Cert
		if _, _, err := v.Open(&bad, 0); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("forged certificate never accepted", func(t *testing.T) {
		bad := *a
		bad.Cert.Signature = append([]byte(nil), a.Cert.Signature...)
		bad.Cert.Signature[2] ^= 0x01
		if _, _, err := v.Open(&bad, 0); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("err = %v, want ErrBadCertificate", err)
		}
	})
	t.Run("cached certificate expires on schedule", func(t *testing.T) {
		if _, _, err := v.Open(a, time.Hour-time.Nanosecond); err != nil {
			t.Fatalf("open just before expiry: %v", err)
		}
		if _, _, err := v.Open(a, time.Hour); !errors.Is(err, ErrCertExpired) {
			t.Fatalf("err = %v, want ErrCertExpired", err)
		}
		if _, _, err := v.Open(a, 2*time.Hour); !errors.Is(err, ErrCertExpired) {
			t.Fatalf("err = %v, want ErrCertExpired", err)
		}
	})
}

// TestVerifierEvictionBounded proves the caches never outgrow their bounds
// and that evicted entries are simply re-verified, not corrupted.
func TestVerifierEvictionBounded(t *testing.T) {
	scheme := ECDSA{}
	f := newVerifierFixture(t, scheme, 5)
	v := NewVerifier(f.trust, scheme, VerifierOptions{})
	v.certs, v.envs = newLRU(2), newLRU(3)

	var secs []*wire.Secure
	for i, cred := range f.creds {
		secs = append(secs, f.seal(t, cred, uint32(i)))
	}
	for round := 0; round < 3; round++ {
		for _, sec := range secs {
			if _, _, err := v.Open(sec, 0); err != nil {
				t.Fatalf("open: %v", err)
			}
		}
		if n := v.certs.len(); n > 2 {
			t.Fatalf("cert cache grew to %d, capacity 2", n)
		}
		if n := v.envs.len(); n > 3 {
			t.Fatalf("envelope cache grew to %d, capacity 3", n)
		}
	}
	st := v.Stats()
	// 5 senders cycling through capacity-2/3 caches: every open misses, so
	// verification counts match the disabled path — correctness over reuse.
	if st.CertHits != 0 || st.EnvelopeHits != 0 {
		t.Fatalf("unexpected hits under thrashing: %+v", st)
	}
}

// TestOpenBatchMatchesSequential pins OpenBatch to per-envelope Open
// results, including nil slots.
func TestOpenBatchMatchesSequential(t *testing.T) {
	scheme := ECDSA{}
	f := newVerifierFixture(t, scheme, 3)
	good := f.seal(t, f.creds[0], 1)
	bad := f.seal(t, f.creds[1], 2)
	bad.Inner[0] ^= 0x10
	batch := []*wire.Secure{good, nil, bad, f.seal(t, f.creds[2], 3), good}

	seq := NewVerifier(f.trust, scheme, VerifierOptions{})
	var want []OpenResult
	for _, sec := range batch {
		pkt, cert, err := seq.Open(sec, 0)
		want = append(want, OpenResult{Packet: pkt, Cert: cert, Err: err})
	}

	v := NewVerifier(f.trust, scheme, VerifierOptions{})
	got := v.OpenBatch(batch, 0)
	if len(got) != len(want) {
		t.Fatalf("batch returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("slot %d: err = %v, want %v", i, got[i].Err, want[i].Err)
		}
		if !reflect.DeepEqual(got[i].Packet, want[i].Packet) {
			t.Fatalf("slot %d: packet = %+v, want %+v", i, got[i].Packet, want[i].Packet)
		}
		if !reflect.DeepEqual(got[i].Cert, want[i].Cert) {
			t.Fatalf("slot %d: cert = %+v, want %+v", i, got[i].Cert, want[i].Cert)
		}
	}
}

// relayedWorkload models the traffic shape the cache is for: a handful of
// neighbours whose envelopes are each received many times via re-broadcast.
func relayedWorkload(t testing.TB, f *verifierFixture, copies int) []*wire.Secure {
	t.Helper()
	var uniques []*wire.Secure
	for i, cred := range f.creds {
		for p := 0; p < 2; p++ {
			uniques = append(uniques, f.seal(t, cred, uint32(i*10+p)))
		}
	}
	var work []*wire.Secure
	for c := 0; c < copies; c++ {
		for i := range uniques {
			work = append(work, uniques[(i+c)%len(uniques)])
		}
	}
	return work
}

// TestCachedVerifyReduction is the tentpole's acceptance check: on a relayed
// workload (each envelope received 8 times) the cache must cut scheme
// verifications by at least 5x versus the uncached reference path.
func TestCachedVerifyReduction(t *testing.T) {
	scheme := ECDSA{}
	f := newVerifierFixture(t, scheme, 8)
	work := relayedWorkload(t, f, 8)

	ref := NewVerifier(f.trust, scheme, VerifierOptions{Disabled: true})
	cached := NewVerifier(f.trust, scheme, VerifierOptions{})
	for _, sec := range work {
		if _, _, err := ref.Open(sec, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cached.Open(sec, 0); err != nil {
			t.Fatal(err)
		}
	}
	uncached := ref.Stats().SchemeVerifies
	got := cached.Stats().SchemeVerifies
	if got == 0 || uncached < 5*got {
		t.Fatalf("scheme verifies: uncached %d, cached %d — want >=5x reduction", uncached, got)
	}
	t.Logf("relayed workload (%d opens): %d uncached verifies vs %d cached (%.1fx)",
		len(work), uncached, got, float64(uncached)/float64(got))
}

// TestVerifierAllocsCachedOpen pins the allocation cost of a warm-cache Open
// — the steady-state hot path — low enough that relayed traffic does not
// churn the heap. Budget: the decoded inner packet plus decode internals.
func TestVerifierAllocsCachedOpen(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	scheme := ECDSA{}
	f := newVerifierFixture(t, scheme, 1)
	sec := f.seal(t, f.creds[0], 7)
	v := NewVerifier(f.trust, scheme, VerifierOptions{})
	if _, _, err := v.Open(sec, 0); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, _, err := v.Open(sec, 0); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 4 // decoded packet + cert copy + decode scratch
	if got > budget {
		t.Fatalf("warm cached Open: %.0f allocs/op, budget %d", got, budget)
	}
}
