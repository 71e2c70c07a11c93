package pki

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"blackdp/internal/wire"
)

// openFixture builds an authority, its credentials and a sealed envelope
// factory under the given scheme.
type openFixture struct {
	trust  *TrustStore
	auth   *Authority
	scheme Scheme
	creds  []*Credential
}

func newOpenFixture(t testing.TB, scheme Scheme, nCreds int) *openFixture {
	t.Helper()
	trust := NewTrustStore()
	auth, err := NewAuthority(1, trust, func() time.Duration { return 0 }, scheme, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	f := &openFixture{trust: trust, auth: auth, scheme: scheme}
	for i := 0; i < nCreds; i++ {
		cred, err := auth.Issue("veh", time.Hour, newDetReader(int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		f.creds = append(f.creds, cred)
	}
	return f
}

func (f *openFixture) seal(t testing.TB, cred *Credential, seq uint32) *wire.Secure {
	t.Helper()
	sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: wire.SeqNum(seq), Issuer: cred.NodeID()}, cred, f.scheme)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// openErrClasses are the error classes Open distinguishes.
var openErrClasses = []error{ErrBadSignature, ErrBadCertificate, ErrCertExpired, ErrUnknownAuthority}

// assertSameOpen checks that Open under scheme agrees with Open under ref
// on packet, certificate and error class.
func assertSameOpen(t *testing.T, sec *wire.Secure, now time.Duration, trust *TrustStore, scheme, ref Scheme) {
	t.Helper()
	wantPkt, wantCert, wantErr := Open(sec, trust, now, ref)
	gotPkt, gotCert, gotErr := Open(sec, trust, now, scheme)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("err = %v, reference err = %v", gotErr, wantErr)
	}
	if wantErr != nil {
		for _, class := range openErrClasses {
			if errors.Is(wantErr, class) != errors.Is(gotErr, class) {
				t.Fatalf("error class mismatch: %v, reference %v", gotErr, wantErr)
			}
		}
		return
	}
	if !reflect.DeepEqual(gotPkt, wantPkt) {
		t.Fatalf("packet mismatch: %+v, reference %+v", gotPkt, wantPkt)
	}
	if !reflect.DeepEqual(gotCert, wantCert) {
		t.Fatalf("cert mismatch: %+v, reference %+v", gotCert, wantCert)
	}
}

// TestVerifierMatchesOpen holds every scheme's verification to the verdict
// each envelope deserves — valid, tampered, forged, expired and malformed —
// and, under ECDSA, Open through a world's memo to Open with none: on a
// cold memo, and again after every envelope has been seen once (a warm
// memo must not change a single verdict).
func TestVerifierMatchesOpen(t *testing.T) {
	session := NewSessionToken()
	for _, tc := range []struct {
		name        string
		scheme, ref Scheme
	}{
		{"ecdsa", ECDSA{Memo: NewMemo()}, ECDSA{}},
		{"insecure", Insecure{}, Insecure{}},
		{"session", session, session},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scheme, ref := tc.scheme, tc.ref
			f := newOpenFixture(t, ref, 2)
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
				want error // nil: the envelope opens
			}{
				{"valid", valid, 0, nil},
				{"valid other sender", other, 0, nil},
				{"tampered inner", tamperedInner, 0, ErrBadSignature},
				{"tampered signature", tamperedSig, 0, ErrBadSignature},
				{"signature from other envelope", swappedSig, 0, ErrBadSignature},
				{"forged certificate signature", forgedCert, 0, ErrBadCertificate},
				{"unknown authority", unknownAuth, 0, ErrUnknownAuthority},
				{"promoted pseudonym", promotedNode, 0, ErrBadCertificate},
				{"expired certificate", valid, 2 * time.Hour, ErrCertExpired},
				{"nil envelope", nil, 0, ErrBadSignature},
			}
			for pass := 0; pass < 2; pass++ { // cold, then warm
				for _, c := range cases {
					t.Run(c.name, func(t *testing.T) {
						_, _, err := Open(c.sec, f.trust, c.now, scheme)
						if (c.want == nil) != (err == nil) || (c.want != nil && !errors.Is(err, c.want)) {
							t.Fatalf("err = %v, want %v", err, c.want)
						}
						assertSameOpen(t, c.sec, c.now, f.trust, scheme, ref)
					})
				}
			}
		})
	}
}

// TestVerifierNoLaundering drives the adversarial cases through Open over a
// memo that has already accepted the honest envelopes: nothing a
// remembered verdict proves may transfer to tampered payloads, forged or
// expired certificates.
func TestVerifierNoLaundering(t *testing.T) {
	f := newOpenFixture(t, ECDSA{}, 2)
	memo := NewMemo()
	scheme := ECDSA{Memo: memo}

	a := f.seal(t, f.creds[0], 1)
	b := f.seal(t, f.creds[1], 2)
	for _, sec := range []*wire.Secure{a, b} {
		for range 2 { // the second open hits the memo
			if _, _, err := Open(sec, f.trust, 0, scheme); err != nil {
				t.Fatalf("honest open: %v", err)
			}
		}
	}
	if s := memo.Stats(); s.VerifyHits == 0 {
		t.Fatalf("honest reopens never hit the memo: %+v", s)
	}

	t.Run("tampered payload after cached success", func(t *testing.T) {
		bad := *a
		bad.Inner = append([]byte(nil), a.Inner...)
		bad.Inner[0] ^= 0xff
		if _, _, err := Open(&bad, f.trust, 0, scheme); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("signature swapped between cached envelopes", func(t *testing.T) {
		bad := *a
		bad.Signature = b.Signature
		if _, _, err := Open(&bad, f.trust, 0, scheme); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("certificate swapped between cached envelopes", func(t *testing.T) {
		bad := *a
		bad.Cert = b.Cert
		if _, _, err := Open(&bad, f.trust, 0, scheme); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("forged certificate never accepted", func(t *testing.T) {
		bad := *a
		bad.Cert.Signature = append([]byte(nil), a.Cert.Signature...)
		bad.Cert.Signature[2] ^= 0x01
		if _, _, err := Open(&bad, f.trust, 0, scheme); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("err = %v, want ErrBadCertificate", err)
		}
	})
	t.Run("cached certificate expires on schedule", func(t *testing.T) {
		if _, _, err := Open(a, f.trust, time.Hour-time.Nanosecond, scheme); err != nil {
			t.Fatalf("open just before expiry: %v", err)
		}
		if _, _, err := Open(a, f.trust, time.Hour, scheme); !errors.Is(err, ErrCertExpired) {
			t.Fatalf("err = %v, want ErrCertExpired", err)
		}
		if _, _, err := Open(a, f.trust, 2*time.Hour, scheme); !errors.Is(err, ErrCertExpired) {
			t.Fatalf("err = %v, want ErrCertExpired", err)
		}
	})
}

// TestVerifierEvictionBounded opens through a memo far smaller than the
// traffic: it never outgrows its bound, and an evicted verdict is simply
// computed again, never corrupted.
func TestVerifierEvictionBounded(t *testing.T) {
	f := newOpenFixture(t, ECDSA{}, 5)
	memo := newMemo(3)
	scheme := ECDSA{Memo: memo}

	var secs []*wire.Secure
	for i, cred := range f.creds {
		secs = append(secs, f.seal(t, cred, uint32(i)))
	}
	for round := 0; round < 3; round++ {
		for _, sec := range secs {
			if _, _, err := Open(sec, f.trust, 0, scheme); err != nil {
				t.Fatalf("open: %v", err)
			}
		}
		if n := memo.Stats().Entries; n > 3 {
			t.Fatalf("memo grew to %d entries, capacity 3", n)
		}
	}
	// 5 senders, two verdicts each, cycling through 3 slots: every lookup
	// misses, so every verification is computed — correctness over reuse.
	if s := memo.Stats(); s.VerifyHits != 0 || s.VerifyMisses != 3*2*len(secs) {
		t.Fatalf("unexpected memo traffic under thrashing: %+v", s)
	}
}
