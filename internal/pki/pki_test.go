package pki

import (
	"crypto/ecdsa"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"blackdp/internal/wire"
)

// detReader is a deterministic io.Reader for key generation in tests.
type detReader struct{ r *rand.Rand }

func (d detReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

func newDetReader(seed int64) detReader {
	return detReader{r: rand.New(rand.NewSource(seed))}
}

// certOf returns cred's certificate through the minting accessor.
func certOf(t testing.TB, cred *Credential) wire.Certificate {
	t.Helper()
	cert, err := cred.Certificate()
	if err != nil {
		t.Fatalf("minting %v: %v", cred.NodeID(), err)
	}
	return cert
}

// keyOf returns cred's private key through the minting accessor.
func keyOf(t testing.TB, cred *Credential) *ecdsa.PrivateKey {
	t.Helper()
	key, err := cred.PrivateKey()
	if err != nil {
		t.Fatalf("minting %v: %v", cred.NodeID(), err)
	}
	return key
}

type fakeClock struct{ now time.Duration }

func (c *fakeClock) clock() time.Duration { return c.now }

func newTestAuthority(t *testing.T, id wire.AuthorityID, trust *TrustStore, clk *fakeClock) *Authority {
	t.Helper()
	a, err := NewAuthority(id, trust, clk.clock, ECDSA{Rand: newDetReader(int64(id))}, newDetReader(int64(id)*100))
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	return a
}

func TestIssueAndVerifyCertificate(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a := newTestAuthority(t, 1, trust, clk)
	scheme := ECDSA{Rand: newDetReader(9)}

	cred, err := a.Issue("veh-1", time.Hour, newDetReader(1))
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if cred.NodeID() == wire.Broadcast {
		t.Error("issued broadcast pseudonym")
	}
	cert := certOf(t, cred)
	if cert.Authority != 1 {
		t.Errorf("cert authority = %d, want 1", cert.Authority)
	}
	if err := VerifyCertificate(&cert, trust, clk.now, scheme); err != nil {
		t.Errorf("VerifyCertificate: %v", err)
	}
}

func TestVerifyCertificateFailures(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a := newTestAuthority(t, 1, trust, clk)
	scheme := ECDSA{Rand: newDetReader(9)}
	cred, err := a.Issue("veh-1", time.Hour, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	cert := certOf(t, cred)

	t.Run("expired", func(t *testing.T) {
		err := VerifyCertificate(&cert, trust, 2*time.Hour, scheme)
		if !errors.Is(err, ErrCertExpired) {
			t.Errorf("error = %v, want ErrCertExpired", err)
		}
	})
	t.Run("unknown authority", func(t *testing.T) {
		bad := cert
		bad.Authority = 42
		err := VerifyCertificate(&bad, trust, 0, scheme)
		if !errors.Is(err, ErrUnknownAuthority) {
			t.Errorf("error = %v, want ErrUnknownAuthority", err)
		}
	})
	t.Run("tampered node id", func(t *testing.T) {
		bad := cert
		bad.Node = 999 // forging a different pseudonym breaks the signature
		err := VerifyCertificate(&bad, trust, 0, scheme)
		if !errors.Is(err, ErrBadCertificate) {
			t.Errorf("error = %v, want ErrBadCertificate", err)
		}
	})
	t.Run("tampered signature", func(t *testing.T) {
		bad := cert
		bad.Signature = append([]byte(nil), bad.Signature...)
		bad.Signature[10] ^= 0xff
		err := VerifyCertificate(&bad, trust, 0, scheme)
		if !errors.Is(err, ErrBadCertificate) {
			t.Errorf("error = %v, want ErrBadCertificate", err)
		}
	})
	t.Run("nil cert", func(t *testing.T) {
		if err := VerifyCertificate(nil, trust, 0, scheme); err == nil {
			t.Error("nil certificate accepted")
		}
	})
}

func TestPseudonymsUniqueAcrossAuthorities(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a1 := newTestAuthority(t, 1, trust, clk)
	a2 := newTestAuthority(t, 2, trust, clk)
	seen := map[wire.NodeID]bool{}
	for i := 0; i < 50; i++ {
		c1, err := a1.Issue("x", time.Hour, newDetReader(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		c2, err := a2.Issue("x", time.Hour, newDetReader(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []wire.NodeID{c1.NodeID(), c2.NodeID()} {
			if seen[id] {
				t.Fatalf("pseudonym %v issued twice", id)
			}
			seen[id] = true
		}
	}
}

func TestRenewRotatesPseudonym(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a := newTestAuthority(t, 1, trust, clk)
	cred, err := a.Issue("veh-1", time.Hour, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	renewed, err := a.Renew(certOf(t, cred), time.Hour, newDetReader(2))
	if err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if renewed.NodeID() == cred.NodeID() {
		t.Error("renewal did not rotate the pseudonym")
	}
	if renewed.Serial() == cred.Serial() {
		t.Error("renewal did not advance the serial")
	}
}

func TestRenewDeniedAfterRevocation(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a := newTestAuthority(t, 1, trust, clk)
	cred, err := a.Issue("attacker", time.Hour, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	rc := a.RevokeCert(certOf(t, cred))
	if rc.Node != cred.NodeID() || rc.CertSerial != cred.Serial() {
		t.Errorf("revocation record = %+v", rc)
	}
	if !a.IsRevoked(cred.Serial()) {
		t.Error("IsRevoked = false after revocation")
	}
	if _, err := a.Renew(certOf(t, cred), time.Hour, newDetReader(2)); !errors.Is(err, ErrRenewalPaused) {
		t.Errorf("Renew after revocation error = %v, want ErrRenewalPaused", err)
	}
	// Fresh issuance for the same lineage is paused too.
	if _, err := a.Issue("attacker", time.Hour, newDetReader(3)); !errors.Is(err, ErrRenewalPaused) {
		t.Errorf("Issue for revoked lineage error = %v, want ErrRenewalPaused", err)
	}
}

func TestRevocationPausesLatestSerialInLineage(t *testing.T) {
	// Attacker renews first, then the *old* serial is revoked: the current
	// serial must be paused as well, because the TA knows the lineage.
	trust := NewTrustStore()
	clk := &fakeClock{}
	a := newTestAuthority(t, 1, trust, clk)
	old, err := a.Issue("attacker", time.Hour, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := a.Renew(certOf(t, old), time.Hour, newDetReader(2))
	if err != nil {
		t.Fatal(err)
	}
	a.RevokeCert(certOf(t, old))
	if _, err := a.Renew(certOf(t, fresh), time.Hour, newDetReader(3)); !errors.Is(err, ErrRenewalPaused) {
		t.Errorf("renewal of successor cert error = %v, want ErrRenewalPaused", err)
	}
}

func TestPeerRevocationPausesRenewal(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a1 := newTestAuthority(t, 1, trust, clk)
	a2 := newTestAuthority(t, 2, trust, clk)
	cred, err := a1.Issue("attacker", time.Hour, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	// Before the notice, the peer authority would happily renew.
	if _, err := a2.Renew(certOf(t, cred), time.Hour, newDetReader(2)); err != nil {
		t.Fatalf("pre-notice peer renewal failed: %v", err)
	}
	rc := a1.RevokeCert(certOf(t, cred))
	a2.RecordPeerRevocation(rc)
	if _, err := a2.Renew(certOf(t, cred), time.Hour, newDetReader(3)); !errors.Is(err, ErrRenewalPaused) {
		t.Errorf("post-notice peer renewal error = %v, want ErrRenewalPaused", err)
	}
	if !a2.IsRevoked(rc.CertSerial) {
		t.Error("peer authority does not report the serial revoked")
	}
}

func TestCrossAuthorityRenewalThenRevocation(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a1 := newTestAuthority(t, 1, trust, clk)
	a2 := newTestAuthority(t, 2, trust, clk)
	cred, err := a1.Issue("veh", time.Hour, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	moved, err := a2.Renew(certOf(t, cred), time.Hour, newDetReader(2))
	if err != nil {
		t.Fatal(err)
	}
	a2.RevokeCert(certOf(t, moved))
	if _, err := a2.Renew(certOf(t, moved), time.Hour, newDetReader(3)); !errors.Is(err, ErrRenewalPaused) {
		t.Errorf("renewal of revoked foreign-lineage cert error = %v, want ErrRenewalPaused", err)
	}
}

func TestPruneExpired(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a := newTestAuthority(t, 1, trust, clk)
	cred, err := a.Issue("attacker", time.Hour, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	a.RevokeCert(certOf(t, cred))
	if a.RevokedCount() != 1 {
		t.Fatalf("RevokedCount = %d, want 1", a.RevokedCount())
	}
	clk.now = 30 * time.Minute
	if n := a.PruneExpired(); n != 0 {
		t.Errorf("pruned %d records before expiry, want 0", n)
	}
	clk.now = 2 * time.Hour
	if n := a.PruneExpired(); n != 1 {
		t.Errorf("pruned %d records after expiry, want 1", n)
	}
	if a.RevokedCount() != 0 {
		t.Errorf("RevokedCount = %d after prune, want 0", a.RevokedCount())
	}
}

func TestIssueValidation(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a := newTestAuthority(t, 1, trust, clk)
	if _, err := a.Issue("", time.Hour, newDetReader(1)); err == nil {
		t.Error("empty lineage accepted")
	}
	if _, err := a.Issue("x", 0, newDetReader(1)); err == nil {
		t.Error("zero validity accepted")
	}
}

func TestNewAuthorityValidation(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	if _, err := NewAuthority(0, trust, clk.clock, ECDSA{}, newDetReader(1)); err == nil {
		t.Error("authority id 0 accepted")
	}
	if _, err := NewAuthority(1, nil, clk.clock, ECDSA{}, newDetReader(1)); err == nil {
		t.Error("nil trust store accepted")
	}
	if _, err := NewAuthority(1, trust, nil, ECDSA{}, newDetReader(1)); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := NewAuthority(1, trust, clk.clock, nil, newDetReader(1)); err == nil {
		t.Error("nil scheme accepted")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, scheme := range []Scheme{ECDSA{Rand: newDetReader(5)}, Insecure{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			trust := NewTrustStore()
			clk := &fakeClock{}
			a, err := NewAuthority(1, trust, clk.clock, scheme, newDetReader(1))
			if err != nil {
				t.Fatal(err)
			}
			cred, err := a.Issue("veh-1", time.Hour, newDetReader(2))
			if err != nil {
				t.Fatal(err)
			}
			inner := &wire.RREP{Origin: 1, Dest: 7, DestSeq: 75, HopCount: 3, Issuer: cred.NodeID()}
			sec, err := Seal(inner, cred, scheme)
			if err != nil {
				t.Fatalf("Seal: %v", err)
			}
			got, cert, err := Open(sec, trust, clk.now, scheme)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			rrep, ok := got.(*wire.RREP)
			if !ok || rrep.DestSeq != 75 || rrep.Issuer != cred.NodeID() {
				t.Errorf("opened packet = %+v", got)
			}
			if cert.Node != cred.NodeID() {
				t.Errorf("authenticated cert node = %v, want %v", cert.Node, cred.NodeID())
			}
		})
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	scheme := ECDSA{Rand: newDetReader(5)}
	a, err := NewAuthority(1, trust, clk.clock, scheme, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	cred, err := a.Issue("veh-1", time.Hour, newDetReader(2))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *wire.Secure {
		sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: 75}, cred, scheme)
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}

	t.Run("payload tampered", func(t *testing.T) {
		sec := mk()
		sec.Inner[5] ^= 0xff // e.g. inflating the sequence number in flight
		if _, _, err := Open(sec, trust, clk.now, scheme); !errors.Is(err, ErrBadSignature) {
			t.Errorf("error = %v, want ErrBadSignature", err)
		}
	})
	t.Run("signature tampered", func(t *testing.T) {
		sec := mk()
		sec.Signature[8] ^= 0xff
		if _, _, err := Open(sec, trust, clk.now, scheme); !errors.Is(err, ErrBadSignature) {
			t.Errorf("error = %v, want ErrBadSignature", err)
		}
	})
	t.Run("substituted certificate", func(t *testing.T) {
		// An impersonator presents its own valid certificate with someone
		// else's signed payload.
		other, err := a.Issue("veh-2", time.Hour, newDetReader(3))
		if err != nil {
			t.Fatal(err)
		}
		sec := mk()
		sec.Cert = certOf(t, other)
		if _, _, err := Open(sec, trust, clk.now, scheme); !errors.Is(err, ErrBadSignature) {
			t.Errorf("error = %v, want ErrBadSignature", err)
		}
	})
	t.Run("expired certificate", func(t *testing.T) {
		sec := mk()
		if _, _, err := Open(sec, trust, 2*time.Hour, scheme); !errors.Is(err, ErrCertExpired) {
			t.Errorf("error = %v, want ErrCertExpired", err)
		}
	})
	t.Run("nil envelope", func(t *testing.T) {
		if _, _, err := Open(nil, trust, 0, scheme); err == nil {
			t.Error("nil envelope accepted")
		}
	})
}

func TestSecureEnvelopeSurvivesWire(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	scheme := ECDSA{Rand: newDetReader(5)}
	a, err := NewAuthority(1, trust, clk.clock, scheme, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	cred, err := a.Issue("veh-1", time.Hour, newDetReader(2))
	if err != nil {
		t.Fatal(err)
	}
	sec, err := Seal(&wire.Hello{Origin: cred.NodeID(), Dest: 7, Nonce: 99}, cred, scheme)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Open(decoded.(*wire.Secure), trust, clk.now, scheme)
	if err != nil {
		t.Fatalf("Open after wire round trip: %v", err)
	}
	if h := got.(*wire.Hello); h.Nonce != 99 {
		t.Errorf("hello nonce = %d, want 99", h.Nonce)
	}
}

func TestSignatureFixedWidth(t *testing.T) {
	key, err := GenerateKey(newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{ECDSA{Rand: newDetReader(2)}, Insecure{}} {
		for i := 0; i < 20; i++ {
			sig, err := scheme.Sign(key, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			if len(sig) != SignatureSize {
				t.Fatalf("%s: signature %d bytes, want fixed %d", scheme.Name(), len(sig), SignatureSize)
			}
			if !scheme.Verify(&key.PublicKey, []byte{byte(i)}, sig) {
				t.Fatalf("%s: self-verify failed", scheme.Name())
			}
		}
	}
}

func TestVerifyRejectsMalformedSignatures(t *testing.T) {
	key, err := GenerateKey(newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	for _, scheme := range []Scheme{ECDSA{}, Insecure{}} {
		if scheme.Verify(&key.PublicKey, msg, nil) {
			t.Errorf("%s: nil signature verified", scheme.Name())
		}
		if scheme.Verify(&key.PublicKey, msg, make([]byte, 10)) {
			t.Errorf("%s: short signature verified", scheme.Name())
		}
		bad := make([]byte, SignatureSize)
		bad[0] = 200 // length byte exceeding the frame
		if scheme.Verify(&key.PublicKey, msg, bad) {
			t.Errorf("%s: overlong length byte verified", scheme.Name())
		}
		if scheme.Verify(nil, msg, make([]byte, SignatureSize)) {
			t.Errorf("%s: nil key verified", scheme.Name())
		}
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	key, err := GenerateKey(newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	der, err := MarshalPublicKey(&key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ParsePublicKey(der)
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Equal(&key.PublicKey) {
		t.Error("public key round trip mismatch")
	}
	if _, err := ParsePublicKey([]byte{1, 2, 3}); err == nil {
		t.Error("garbage public key parsed")
	}
}

// TestInsecureSchemeProperty: for random messages, Insecure verifies its own
// signatures and rejects signatures moved to a different message.
func TestInsecureSchemeProperty(t *testing.T) {
	key, err := GenerateKey(newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	scheme := Insecure{}
	prop := func(msg, other []byte) bool {
		sig, err := scheme.Sign(key, msg)
		if err != nil {
			return false
		}
		if !scheme.Verify(&key.PublicKey, msg, sig) {
			return false
		}
		if string(other) != string(msg) && scheme.Verify(&key.PublicKey, other, sig) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
