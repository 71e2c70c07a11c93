package pki

import (
	"crypto/ecdsa"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"math/big"
	"sync"
)

// SessionToken is the amortized-cost scheme: one real ECDSA P-256 signature
// per pseudonym epoch, then a cheap HMAC-SHA256 tag per packet.
//
// An epoch is the lifetime of one key pair — pseudonym issuance and renewal
// both mint fresh keys, so rotating identity always rotates the session. On
// a key's first Sign the scheme derives a 256-bit session key from the
// private scalar and signs an anchor message (public key point plus session
// key) with plain ECDSA: that one signature is the epoch's key agreement,
// and its cost is charged exactly once per epoch. Every packet signature
// thereafter is HMAC-SHA256(session key, message), framed into the same
// fixed-width field as an ECDSA signature so wire sizes, transmission delays
// and event ordering are identical across schemes.
//
// A verifier accepts a tag only for a public key whose epoch anchor it has
// checked: the first Verify against a key runs the one real ECDSA
// verification of the anchor signature; later packets cost a constant-time
// MAC compare. A key that never anchored, a tag minted under a different
// epoch's session key, or a tampered anchor all fail — the session table
// cannot launder tokens across epochs because the table is keyed by the
// public key point and the session key is bound to the private scalar.
//
// The shared instance stands in for the epoch key-agreement channel (in a
// deployment the anchor signature would travel with the first packet of the
// epoch); a receiver that was never announced to — a separate SessionToken
// instance — rejects everything, which the tests pin. The instance is
// mutex-guarded so sharded runs can sign and verify concurrently; anchor
// signatures are deterministic (RFC 6979), so establishment order cannot
// change a byte.
type SessionToken struct {
	mu       sync.Mutex
	sessions map[[32]byte]*epochSession
	stats    SessionStats
}

// SessionStats counts the scheme's two cost classes: real ECDSA operations
// (once per epoch per side) and per-packet MAC operations.
type SessionStats struct {
	EpochSigns    uint64 // ECDSA anchor signatures created (sender epochs)
	EpochVerifies uint64 // ECDSA anchor verifications (verifier-side epochs)
	MACSigns      uint64 // per-packet HMAC tags minted
	MACVerifies   uint64 // per-packet HMAC tags checked
}

type epochSession struct {
	key         [sha256.Size]byte // HMAC session key for the epoch
	anchorSig   []byte            // ECDSA signature binding key point + session key
	established bool              // verifier-side anchor check passed
}

var _ Scheme = (*SessionToken)(nil)

// NewSessionToken creates a session-token scheme with no epochs.
func NewSessionToken() *SessionToken {
	return &SessionToken{sessions: make(map[[32]byte]*epochSession)}
}

// Name implements Scheme.
func (*SessionToken) Name() string { return "session-token-hmac-sha256" }

// Stats returns a snapshot of the epoch/packet operation counters.
func (st *SessionToken) Stats() SessionStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// Sessions returns the number of epochs the instance has seen.
func (st *SessionToken) Sessions() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// Domain-separation labels for the scheme's two derivations.
var (
	sessionKeyDomain    = []byte("blackdp/session-token/key/v1")
	sessionAnchorDomain = []byte("blackdp/session-token/anchor/v1")
)

// p256Coord is the byte width of a P-256 coordinate.
const p256Coord = 32

// pointBytes writes the fixed-width affine point of pub into dst (64 bytes)
// and reports whether the key is usable.
func pointBytes(dst []byte, pub *ecdsa.PublicKey) bool {
	return pub != nil && fill32(dst[:p256Coord], pub.X) && fill32(dst[p256Coord:2*p256Coord], pub.Y)
}

// fill32 writes x big-endian into dst, reporting false when x is missing,
// negative or wider than a P-256 coordinate.
func fill32(dst []byte, x *big.Int) bool {
	if x == nil || x.Sign() < 0 || x.BitLen() > 8*p256Coord {
		return false
	}
	x.FillBytes(dst[:p256Coord])
	return true
}

func sessionFingerprint(pub *ecdsa.PublicKey) ([32]byte, bool) {
	var pt [2 * p256Coord]byte
	if !pointBytes(pt[:], pub) {
		return [32]byte{}, false
	}
	return sha256.Sum256(pt[:]), true
}

// deriveSessionKey binds the epoch's session key to the private scalar, so
// only the key holder can mint it.
func deriveSessionKey(priv *ecdsa.PrivateKey) ([sha256.Size]byte, bool) {
	var pt [2 * p256Coord]byte
	if priv == nil || priv.D == nil || !pointBytes(pt[:], &priv.PublicKey) {
		return [sha256.Size]byte{}, false
	}
	var d [p256Coord]byte
	priv.D.FillBytes(d[:])
	h := sha256.New()
	h.Write(sessionKeyDomain)
	h.Write(d[:])
	h.Write(pt[:])
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k, true
}

// anchorMessage is the byte string the epoch's one ECDSA signature covers:
// the public key point plus the session key it vouches for.
func anchorMessage(pub *ecdsa.PublicKey, key [sha256.Size]byte) ([]byte, bool) {
	msg := make([]byte, len(sessionAnchorDomain)+2*p256Coord+sha256.Size)
	n := copy(msg, sessionAnchorDomain)
	if !pointBytes(msg[n:n+2*p256Coord], pub) {
		return nil, false
	}
	copy(msg[n+2*p256Coord:], key[:])
	return msg, true
}

// Sign implements Scheme: the first call for a key pair establishes the
// epoch (one real ECDSA signature over the anchor message); every call mints
// an HMAC-SHA256 tag over msg under the epoch's session key.
func (st *SessionToken) Sign(priv *ecdsa.PrivateKey, msg []byte) ([]byte, error) {
	if priv == nil {
		return nil, errors.New("pki: Sign with nil key")
	}
	fp, ok := sessionFingerprint(&priv.PublicKey)
	if !ok {
		return nil, errors.New("pki: session sign with malformed key")
	}
	st.mu.Lock()
	if st.sessions == nil {
		st.sessions = make(map[[32]byte]*epochSession)
	}
	sess := st.sessions[fp]
	if sess == nil {
		key, ok := deriveSessionKey(priv)
		if !ok {
			st.mu.Unlock()
			return nil, errors.New("pki: session sign with malformed key")
		}
		anchor, _ := anchorMessage(&priv.PublicKey, key)
		sig, err := ECDSA{}.Sign(priv, anchor)
		if err != nil {
			st.mu.Unlock()
			return nil, err
		}
		sess = &epochSession{key: key, anchorSig: sig}
		st.sessions[fp] = sess
		st.stats.EpochSigns++
	}
	key := sess.key
	st.stats.MACSigns++
	st.mu.Unlock()

	mac := hmac.New(sha256.New, key[:])
	mac.Write(msg)
	tag := mac.Sum(nil)
	sig := make([]byte, SignatureSize)
	sig[0] = byte(len(tag))
	copy(sig[1:], tag)
	return sig, nil
}

// Verify implements Scheme: it accepts only tags minted under the session
// key whose epoch anchor for this exact public key has been ECDSA-verified.
func (st *SessionToken) Verify(pub *ecdsa.PublicKey, msg, sig []byte) bool {
	tag, ok := unframe(sig)
	if !ok || len(tag) != sha256.Size {
		return false
	}
	fp, ok := sessionFingerprint(pub)
	if !ok {
		return false
	}
	st.mu.Lock()
	sess := st.sessions[fp]
	if sess == nil {
		st.mu.Unlock()
		return false
	}
	if !sess.established {
		anchor, ok := anchorMessage(pub, sess.key)
		if !ok || !(ECDSA{}).Verify(pub, anchor, sess.anchorSig) {
			st.mu.Unlock()
			return false
		}
		sess.established = true
		st.stats.EpochVerifies++
	}
	key := sess.key
	st.stats.MACVerifies++
	st.mu.Unlock()

	mac := hmac.New(sha256.New, key[:])
	mac.Write(msg)
	want := mac.Sum(nil)
	return hmac.Equal(tag, want)
}
