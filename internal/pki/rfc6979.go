package pki

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/asn1"
	"errors"
	"hash"
	"math/big"
)

// signRFC6979 signs a SHA-256 digest with a P-256 key and the nonce of
// RFC 6979 section 3.2, returning the ASN.1 DER signature. The nonce is an
// HMAC-DRBG output keyed by the private scalar and the digest, so the
// signature is a pure function of key and message: the same on every run,
// platform and Go release. crypto/ecdsa offers that only from Go 1.24 on,
// and its randomized signer reads a variable number of bytes.
//
// The signer is not hardened against timing side channels: only kG runs in
// constant time (crypto/ecdh), while s is computed with variable-time
// math/big arithmetic on the private scalar. It signs simulated credentials
// only and must not be reused for real keys.
func signRFC6979(priv *ecdsa.PrivateKey, digest []byte) ([]byte, error) {
	params := elliptic.P256().Params()
	n := params.N
	if priv.Curve != elliptic.P256() || priv.D == nil || priv.D.Sign() <= 0 || priv.D.Cmp(n) >= 0 {
		return nil, errors.New("pki: RFC 6979 signing needs a P-256 private key")
	}
	if len(digest) != sha256.Size {
		return nil, errors.New("pki: RFC 6979 signing needs a SHA-256 digest")
	}
	// For P-256 with SHA-256, qlen = hlen = 256: bits2int is a plain
	// big-endian read and bits2octets one conditional subtraction.
	e := new(big.Int).SetBytes(digest)
	h := new(big.Int).Set(e)
	if h.Cmp(n) >= 0 {
		h.Sub(h, n)
	}
	var x, hb [p256Coord]byte
	priv.D.FillBytes(x[:])
	h.FillBytes(hb[:])

	var v, key [sha256.Size]byte
	for i := range v {
		v[i] = 0x01
	}
	mac := func(k []byte, parts ...[]byte) hash.Hash {
		m := hmac.New(sha256.New, k)
		for _, p := range parts {
			m.Write(p)
		}
		return m
	}
	mac(key[:], v[:], []byte{0x00}, x[:], hb[:]).Sum(key[:0])
	mac(key[:], v[:]).Sum(v[:0])
	mac(key[:], v[:], []byte{0x01}, x[:], hb[:]).Sum(key[:0])
	mac(key[:], v[:]).Sum(v[:0])

	k, r, s := new(big.Int), new(big.Int), new(big.Int)
	for {
		mac(key[:], v[:]).Sum(v[:0])
		k.SetBytes(v[:])
		if k.Sign() > 0 && k.Cmp(n) < 0 {
			// r = x(kG) mod n; crypto/ecdh computes kG in constant time.
			ek, err := ecdh.P256().NewPrivateKey(v[:])
			if err != nil {
				return nil, err
			}
			r.SetBytes(ek.PublicKey().Bytes()[1 : 1+p256Coord])
			r.Mod(r, n)
			if r.Sign() > 0 {
				// s = k⁻¹(e + r·d) mod n
				s.Mul(r, priv.D)
				s.Add(s, e)
				s.Mul(s, new(big.Int).ModInverse(k, n))
				s.Mod(s, n)
				if s.Sign() > 0 {
					return asn1.Marshal(struct{ R, S *big.Int }{r, s})
				}
			}
		}
		mac(key[:], v[:], []byte{0x00}).Sum(key[:0])
		mac(key[:], v[:]).Sum(v[:0])
	}
}
