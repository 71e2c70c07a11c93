package pki

import (
	"errors"
	"testing"
	"time"

	"blackdp/internal/wire"
)

// TestSessionTokenRoundTrip runs the full envelope path — TA-signed
// certificate plus per-packet token — under the session scheme.
func TestSessionTokenRoundTrip(t *testing.T) {
	scheme := NewSessionToken()
	f := newOpenFixture(t, scheme, 1)
	sec := f.seal(t, f.creds[0], 5)
	pkt, cert, err := Open(sec, f.trust, 0, scheme)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rrep, ok := pkt.(*wire.RREP); !ok || rrep.DestSeq != 5 {
		t.Fatalf("decoded %+v, want RREP with DestSeq 5", pkt)
	}
	if cert.Node != f.creds[0].NodeID() {
		t.Fatalf("cert node = %v, want %v", cert.Node, f.creds[0].NodeID())
	}
}

// TestSessionTokenAmortization pins the scheme's cost model: real ECDSA work
// happens once per epoch per side, no matter how many packets flow.
func TestSessionTokenAmortization(t *testing.T) {
	scheme := NewSessionToken()
	f := newOpenFixture(t, scheme, 1)
	const packets = 50
	for i := 0; i < packets; i++ {
		sec := f.seal(t, f.creds[0], uint32(i))
		if _, _, err := Open(sec, f.trust, 0, scheme); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	st := scheme.Stats()
	// Two epochs total: the TA's signing key (certificates) and the
	// vehicle's key (packets). Each is anchored once per side.
	if st.EpochSigns != 2 {
		t.Errorf("EpochSigns = %d, want 2 (TA + vehicle)", st.EpochSigns)
	}
	if st.EpochVerifies != 2 {
		t.Errorf("EpochVerifies = %d, want 2 (TA + vehicle)", st.EpochVerifies)
	}
	if st.MACSigns < packets {
		t.Errorf("MACSigns = %d, want >= %d", st.MACSigns, packets)
	}
	if st.MACVerifies < packets {
		t.Errorf("MACVerifies = %d, want >= %d", st.MACVerifies, packets)
	}
}

// TestSessionTokenRejections drives the forgery surface: tampering, keys
// with no anchored epoch, cross-epoch token reuse, corrupted anchors, and
// receivers the epoch was never announced to.
func TestSessionTokenRejections(t *testing.T) {
	scheme := NewSessionToken()
	f := newOpenFixture(t, scheme, 2)
	sec := f.seal(t, f.creds[0], 9)
	if _, _, err := Open(sec, f.trust, 0, scheme); err != nil {
		t.Fatalf("honest open: %v", err)
	}

	t.Run("tampered payload", func(t *testing.T) {
		bad := *sec
		bad.Inner = append([]byte(nil), sec.Inner...)
		bad.Inner[0] ^= 0x01
		if _, _, err := Open(&bad, f.trust, 0, scheme); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("tampered tag", func(t *testing.T) {
		bad := *sec
		bad.Signature = append([]byte(nil), sec.Signature...)
		bad.Signature[4] ^= 0x01
		if _, _, err := Open(&bad, f.trust, 0, scheme); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("unanchored key", func(t *testing.T) {
		// A key that has never signed under this scheme has no epoch;
		// any tag presented for it must fail.
		key, err := GenerateKey(newDetReader(99))
		if err != nil {
			t.Fatal(err)
		}
		if scheme.Verify(&key.PublicKey, sec.Inner, sec.Signature) {
			t.Fatal("accepted a token for a key with no anchored epoch")
		}
	})
	t.Run("cross-epoch token", func(t *testing.T) {
		// A tag minted under cred[0]'s epoch presented as cred[1]'s:
		// the other epoch's session key cannot validate it.
		other := f.seal(t, f.creds[1], 10) // anchors cred[1]'s epoch
		if _, _, err := Open(other, f.trust, 0, scheme); err != nil {
			t.Fatal(err)
		}
		if scheme.Verify(&keyOf(t, f.creds[1]).PublicKey, sec.Inner, sec.Signature) {
			t.Fatal("accepted a token across epochs")
		}
	})
	t.Run("renewal rotates the epoch", func(t *testing.T) {
		// Renewal mints a fresh key pair, hence a fresh epoch: the old
		// epoch's tokens are useless under the new pseudonym.
		renewed, err := f.auth.Renew(certOf(t, f.creds[0]), time.Hour, newDetReader(123))
		if err != nil {
			t.Fatal(err)
		}
		if scheme.Verify(&keyOf(t, renewed).PublicKey, sec.Inner, sec.Signature) {
			t.Fatal("old epoch's token accepted under renewed pseudonym")
		}
		fresh, err := Seal(&wire.RREP{Origin: 1, Dest: 2, Issuer: renewed.NodeID()}, renewed, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(fresh, f.trust, 0, scheme); err != nil {
			t.Fatalf("renewed epoch open: %v", err)
		}
	})
	t.Run("corrupted anchor", func(t *testing.T) {
		// A fresh verifier-side epoch whose anchor signature was damaged
		// in the session table must reject every packet: the session key
		// is only trusted once its ECDSA anchor verifies.
		corrupt := NewSessionToken()
		g := newOpenFixture(t, corrupt, 1)
		csec := g.seal(t, g.creds[0], 1)
		fp, ok := sessionFingerprint(&keyOf(t, g.creds[0]).PublicKey)
		if !ok {
			t.Fatal("fingerprint failed")
		}
		corrupt.mu.Lock()
		corrupt.sessions[fp].anchorSig[3] ^= 0x20
		corrupt.mu.Unlock()
		if corrupt.Verify(&keyOf(t, g.creds[0]).PublicKey, csec.Inner, csec.Signature) {
			t.Fatal("accepted a token whose epoch anchor does not verify")
		}
	})
	t.Run("unannounced receiver", func(t *testing.T) {
		// A receiver whose session table never saw the epoch (a separate
		// scheme instance) rejects the packet outright.
		elsewhere := NewSessionToken()
		if elsewhere.Verify(&keyOf(t, f.creds[0]).PublicKey, sec.Inner, sec.Signature) {
			t.Fatal("accepted a token for an epoch never announced here")
		}
	})
	t.Run("malformed frame", func(t *testing.T) {
		if scheme.Verify(&keyOf(t, f.creds[0]).PublicKey, sec.Inner, sec.Signature[:10]) {
			t.Fatal("accepted a short signature frame")
		}
		if scheme.Verify(nil, sec.Inner, sec.Signature) {
			t.Fatal("accepted a nil public key")
		}
	})
}

// TestSessionTokenWireShape pins the invariant the determinism contract
// rides on: session tokens occupy exactly the same fixed-width signature
// field as ECDSA, so packet sizes and event timing are scheme-independent.
func TestSessionTokenWireShape(t *testing.T) {
	scheme := NewSessionToken()
	key, err := GenerateKey(newDetReader(18))
	if err != nil {
		t.Fatal(err)
	}
	sig, err := scheme.Sign(key, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != SignatureSize {
		t.Fatalf("session signature is %d bytes, want SignatureSize %d", len(sig), SignatureSize)
	}
	if !scheme.Verify(&key.PublicKey, []byte("payload"), sig) {
		t.Fatal("round trip failed")
	}
}
