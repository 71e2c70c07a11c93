// Package pki implements the paper's IEEE 1609.2-style security substrate:
// Trusted Authorities that issue short-lived pseudonymous ECDSA certificates,
// certificate verification, revocation with cross-authority renewal pausing,
// and the "secure packet" envelope (SHA-256 digest signed with the sender's
// private key, carried with the sender's certificate).
package pki

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	cryptorand "crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Scheme abstracts the signature algorithm so the benchmark harness can
// ablate cryptographic cost (real ECDSA P-256 versus a free placeholder).
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Sign produces a fixed-width signature over msg.
	Sign(priv *ecdsa.PrivateKey, msg []byte) ([]byte, error)
	// Verify reports whether sig is a valid signature over msg by pub.
	Verify(pub *ecdsa.PublicKey, msg, sig []byte) bool
}

// Signature framing: ECDSA P-256 ASN.1 signatures vary between 70 and 72
// bytes. To keep simulated packet sizes (and therefore transmission delays
// and event ordering) independent of the signature value, signatures travel
// in a fixed-width field: one length byte followed by the ASN.1 bytes,
// zero-padded.
const (
	maxASN1SigLen = 72
	// SignatureSize is the fixed on-wire signature field width.
	SignatureSize = 1 + maxASN1SigLen
)

// ECDSA is the production scheme: SHA-256 digests signed with ECDSA P-256,
// as mandated by IEEE 1609.2. Nonces are derived from the key and digest
// (RFC 6979, see signRFC6979), so a signature is a pure function of its
// inputs and every frame of a seeded run is reproducible byte for byte.
type ECDSA struct {
	// Memo, when non-nil, remembers signatures and verdicts across the
	// worlds that share it (see Memo); nil computes every one.
	Memo *Memo
}

var _ Scheme = ECDSA{}

// Name implements Scheme.
func (ECDSA) Name() string { return "ecdsa-p256-sha256" }

// Sign implements Scheme.
func (s ECDSA) Sign(priv *ecdsa.PrivateKey, msg []byte) ([]byte, error) {
	if priv == nil {
		return nil, errors.New("pki: Sign with nil key")
	}
	digest := sha256.Sum256(msg)
	return s.Memo.sign(priv, &digest)
}

// signFramed signs digest with priv (RFC 6979) and frames the signature.
func signFramed(priv *ecdsa.PrivateKey, digest *[sha256.Size]byte) ([]byte, error) {
	asn1, err := signRFC6979(priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("pki: signing: %w", err)
	}
	if len(asn1) > maxASN1SigLen {
		return nil, fmt.Errorf("pki: unexpected %d-byte ASN.1 signature", len(asn1))
	}
	sig := make([]byte, SignatureSize)
	sig[0] = byte(len(asn1))
	copy(sig[1:], asn1)
	return sig, nil
}

// Verify implements Scheme.
func (s ECDSA) Verify(pub *ecdsa.PublicKey, msg, sig []byte) bool {
	asn1, ok := unframe(sig)
	if !ok || pub == nil {
		return false
	}
	digest := sha256.Sum256(msg)
	return s.Memo.verify(pub, &digest, sig, asn1)
}

// Insecure is the ablation scheme: the "signature" is the SHA-256 digest of
// the message and the key's public point, checked by recomputation. It has
// the same wire size as ECDSA but near-zero CPU cost and no security; it
// exists only to measure the cryptographic share of detection latency.
type Insecure struct{}

var _ Scheme = Insecure{}

// Name implements Scheme.
func (Insecure) Name() string { return "insecure-digest" }

func insecureTag(pub *ecdsa.PublicKey, msg []byte) []byte {
	h := sha256.New()
	h.Write(msg)
	if pub != nil && pub.X != nil {
		h.Write(pub.X.Bytes())
		h.Write(pub.Y.Bytes())
	}
	return h.Sum(nil)
}

// Sign implements Scheme.
func (Insecure) Sign(priv *ecdsa.PrivateKey, msg []byte) ([]byte, error) {
	if priv == nil {
		return nil, errors.New("pki: Sign with nil key")
	}
	tag := insecureTag(&priv.PublicKey, msg)
	sig := make([]byte, SignatureSize)
	sig[0] = byte(len(tag))
	copy(sig[1:], tag)
	return sig, nil
}

// Verify implements Scheme.
func (Insecure) Verify(pub *ecdsa.PublicKey, msg, sig []byte) bool {
	tag, ok := unframe(sig)
	if !ok || pub == nil {
		return false
	}
	want := insecureTag(pub, msg)
	if len(tag) != len(want) {
		return false
	}
	for i := range tag {
		if tag[i] != want[i] {
			return false
		}
	}
	return true
}

func unframe(sig []byte) ([]byte, bool) {
	if len(sig) != SignatureSize {
		return nil, false
	}
	n := int(sig[0])
	if n > maxASN1SigLen {
		return nil, false
	}
	return sig[1 : 1+n], true
}

// MarshalPublicKey encodes an ECDSA public key in PKIX DER form for
// embedding in certificates.
func MarshalPublicKey(pub *ecdsa.PublicKey) ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return nil, fmt.Errorf("pki: encoding public key: %w", err)
	}
	return der, nil
}

// ParsePublicKey decodes a PKIX DER public key, requiring ECDSA P-256.
func ParsePublicKey(der []byte) (*ecdsa.PublicKey, error) {
	k, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parsing public key: %w", err)
	}
	pub, ok := k.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("pki: public key is %T, want *ecdsa.PublicKey", k)
	}
	if pub.Curve != elliptic.P256() {
		return nil, fmt.Errorf("pki: public key curve %v, want P-256", pub.Curve.Params().Name)
	}
	return pub, nil
}

// keySeedLen is the number of bytes GenerateKey reads: 64 bits more than
// the P-256 order, so reducing them to a scalar is unbiased to 2^-64.
const keySeedLen = 40

// p256OrderMinus1 is n-1 for P-256; a private scalar lies in [1, n-1].
var p256OrderMinus1 = new(big.Int).Sub(elliptic.P256().Params().N, big.NewInt(1))

// GenerateKey derives an ECDSA P-256 key pair from exactly keySeedLen bytes
// of rand (nil for crypto/rand). Unlike ecdsa.GenerateKey, whose output may
// change between calls for the same input stream, the key is a pure
// function of the bytes read: d = seed mod (n-1) + 1.
func GenerateKey(rand io.Reader) (*ecdsa.PrivateKey, error) {
	var seed [keySeedLen]byte
	if _, err := io.ReadFull(orCryptoRand(rand), seed[:]); err != nil {
		return nil, fmt.Errorf("pki: generating key: %w", err)
	}
	d := new(big.Int).SetBytes(seed[:])
	d.Mod(d, p256OrderMinus1).Add(d, big.NewInt(1))
	key, err := keyFromScalar(d)
	if err != nil {
		return nil, fmt.Errorf("pki: generating key: %w", err)
	}
	return key, nil
}

// keyFromScalar returns the P-256 key pair with private scalar d, which
// must lie in [1, n-1].
func keyFromScalar(d *big.Int) (*ecdsa.PrivateKey, error) {
	var scalar [p256Coord]byte
	d.FillBytes(scalar[:])
	ek, err := ecdh.P256().NewPrivateKey(scalar[:])
	if err != nil {
		return nil, err
	}
	pt := ek.PublicKey().Bytes() // uncompressed: 0x04 || X || Y
	return &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{
			Curve: elliptic.P256(),
			X:     new(big.Int).SetBytes(pt[1 : 1+p256Coord]),
			Y:     new(big.Int).SetBytes(pt[1+p256Coord:]),
		},
		D: d,
	}, nil
}

func orCryptoRand(r io.Reader) io.Reader {
	if r != nil {
		return r
	}
	return cryptorand.Reader
}
