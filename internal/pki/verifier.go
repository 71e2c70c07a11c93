package pki

import (
	"container/list"
	"crypto/ecdsa"
	"encoding/binary"
	"fmt"
	"hash"

	"crypto/sha256"
	"time"

	"blackdp/internal/wire"
)

// Verifier is a per-node verification front end over Open: it memoises the
// expensive, pure parts of envelope verification so re-broadcast and relayed
// packets verify once per node instead of once per reception.
//
// Two content-addressed caches back it, both bounded LRU:
//
//   - a certificate cache keyed by a digest of the certificate's signed
//     preimage AND its authority signature, holding the parsed public key.
//     A hit skips the authority-signature check and the PKIX parse; expiry
//     is re-checked against `now` on every use, so a cached certificate can
//     never outlive its validity, and any tampered byte (including in the
//     signature) changes the key and forces a full verification.
//   - an envelope cache keyed by a digest of (certificate key, payload,
//     signature), recording successful signature verifications only.
//     Tampering with the payload, the signature, or the certificate moves
//     the envelope to a different key, so a forgery can never ride a cached
//     success. Failures are never cached.
//
// Verification results are pure functions of the envelope bytes and the
// trust store, and the Verifier draws no randomness, so a cached Open is
// byte-identical to an uncached one — the crypto differential wall in
// internal/scenario holds whole runs to that. The envelope cache engages
// only for schemes whose Verify is expensive (ECDSA); for cheap schemes the
// digest would cost as much as the verification it saves. The certificate
// cache engages for every scheme: it also elides the PKIX parse.
//
// A Verifier is not safe for concurrent use; every agent owns one, which
// also keeps sharded runs (one agent per shard home) race-free.
type Verifier struct {
	trust  *TrustStore
	scheme Scheme

	certs *lruCache // certKey -> *certEntry
	envs  *lruCache // envKey -> struct{}{}

	cacheEnvelopes bool

	h       hash.Hash
	scratch [64]byte
	sum     [sha256.Size]byte
	results []OpenResult

	stats VerifierStats
}

// VerifierStats counts cache traffic and the scheme verifications that got
// through it. SchemeVerifies is the number of Scheme.Verify invocations
// (certificate and envelope checks both) — the figure the "lightweight"
// claim is about.
type VerifierStats struct {
	SchemeVerifies uint64
	CertHits       uint64
	CertMisses     uint64
	EnvelopeHits   uint64
	EnvelopeMisses uint64
}

// VerifierOptions tune a Verifier. The zero value caches.
type VerifierOptions struct {
	// Disabled bypasses both caches: every Open performs the full
	// verification, exactly like the package-level Open. This is the
	// reference path for the differential suite, not a tuning knob.
	Disabled bool
}

// Cache bounds: sized for a node's radio neighbourhood (certificates seen)
// and its recent traffic (envelopes), small enough that metro-scale worlds
// with one Verifier per agent stay cheap.
const (
	certCapacity     = 256
	envelopeCapacity = 512
)

// NewVerifier builds a verification front end over trust and scheme.
func NewVerifier(trust *TrustStore, scheme Scheme, opt VerifierOptions) *Verifier {
	v := &Verifier{
		trust:  trust,
		scheme: scheme,
		h:      sha256.New(),
	}
	if !opt.Disabled {
		v.certs = newLRU(certCapacity)
		exp, ok := scheme.(interface{ ExpensiveVerify() bool })
		v.cacheEnvelopes = ok && exp.ExpensiveVerify()
		if v.cacheEnvelopes {
			v.envs = newLRU(envelopeCapacity)
		}
	}
	return v
}

// Stats returns a snapshot of the cache counters.
func (v *Verifier) Stats() VerifierStats { return v.stats }

// Scheme returns the scheme the verifier fronts.
func (v *Verifier) Scheme() Scheme { return v.scheme }

type certEntry struct {
	pub    *ecdsa.PublicKey
	expiry time.Duration
}

type cacheKey [sha256.Size]byte

// certKeyOf digests the certificate's signed preimage and its signature into
// the cache key. The layout mirrors wire.Certificate.Preimage (fixed-width
// fields, length-prefixed variable ones) so the mapping is injective, but it
// writes straight into the running hash instead of materialising the buffer.
func (v *Verifier) certKeyOf(c *wire.Certificate) cacheKey {
	v.h.Reset()
	b := v.scratch[:0]
	b = binary.BigEndian.AppendUint64(b, c.Serial)
	b = binary.BigEndian.AppendUint64(b, uint64(c.Node))
	b = binary.BigEndian.AppendUint16(b, uint16(c.Authority))
	b = binary.BigEndian.AppendUint32(b, uint32(len(c.PubKey)))
	v.h.Write(b)
	v.h.Write(c.PubKey)
	b = v.scratch[:0]
	b = binary.BigEndian.AppendUint64(b, uint64(c.Expiry))
	b = binary.BigEndian.AppendUint32(b, uint32(len(c.Signature)))
	v.h.Write(b)
	v.h.Write(c.Signature)
	v.h.Sum(v.sum[:0])
	return v.sum
}

func (v *Verifier) envKeyOf(certKey cacheKey, sec *wire.Secure) cacheKey {
	v.h.Reset()
	v.h.Write(certKey[:])
	b := binary.BigEndian.AppendUint32(v.scratch[:0], uint32(len(sec.Inner)))
	v.h.Write(b)
	v.h.Write(sec.Inner)
	v.h.Write(sec.Signature)
	v.h.Sum(v.sum[:0])
	return v.sum
}

// verifyCert reproduces VerifyCertificate + ParsePublicKey through the
// certificate cache: identical checks, identical errors, in the identical
// order — only the redundant re-verification of an unchanged certificate is
// skipped. Expiry is checked against now on hits and misses alike.
// key is the certificate's precomputed cache key; it is ignored when the
// cache is disabled.
func (v *Verifier) verifyCert(cert *wire.Certificate, key cacheKey, now time.Duration) (*ecdsa.PublicKey, error) {
	if v.certs == nil {
		if err := VerifyCertificate(cert, v.trust, now, v.scheme); err != nil {
			return nil, err
		}
		v.stats.SchemeVerifies++
		pub, err := ParsePublicKey(cert.PubKey)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCertificate, err)
		}
		return pub, nil
	}
	if e, ok := v.certs.get(key); ok {
		entry := e.(*certEntry)
		if entry.expiry <= now {
			return nil, fmt.Errorf("%w: at %v, expired %v", ErrCertExpired, now, entry.expiry)
		}
		v.stats.CertHits++
		return entry.pub, nil
	}
	v.stats.CertMisses++
	if err := VerifyCertificate(cert, v.trust, now, v.scheme); err != nil {
		return nil, err
	}
	v.stats.SchemeVerifies++
	pub, err := ParsePublicKey(cert.PubKey)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	v.certs.put(key, &certEntry{pub: pub, expiry: cert.Expiry})
	return pub, nil
}

// Open verifies a secure packet exactly like the package-level Open —
// certificate against the trust store, signature against the certificate's
// key — resolving the pure, expensive steps through the caches. The decoded
// inner packet and the returned errors are byte-identical to the uncached
// path for every input.
func (v *Verifier) Open(sec *wire.Secure, now time.Duration) (wire.Packet, *wire.Certificate, error) {
	if sec == nil {
		return nil, nil, fmt.Errorf("%w: nil envelope", ErrBadSignature)
	}
	var certKey cacheKey
	if v.certs != nil {
		certKey = v.certKeyOf(&sec.Cert)
	}
	pub, err := v.verifyCert(&sec.Cert, certKey, now)
	if err != nil {
		return nil, nil, err
	}
	if v.envs != nil {
		envKey := v.envKeyOf(certKey, sec)
		if _, ok := v.envs.get(envKey); ok {
			v.stats.EnvelopeHits++
		} else {
			v.stats.EnvelopeMisses++
			v.stats.SchemeVerifies++
			if !v.scheme.Verify(pub, sec.Inner, sec.Signature) {
				return nil, nil, ErrBadSignature
			}
			v.envs.put(envKey, struct{}{})
		}
	} else {
		v.stats.SchemeVerifies++
		if !v.scheme.Verify(pub, sec.Inner, sec.Signature) {
			return nil, nil, ErrBadSignature
		}
	}
	inner, err := wire.Decode(sec.Inner)
	if err != nil {
		return nil, nil, fmt.Errorf("pki: opening envelope: %w", err)
	}
	cert := sec.Cert
	return inner, &cert, nil
}

// OpenResult is one envelope's outcome in an OpenBatch.
type OpenResult struct {
	Packet wire.Packet
	Cert   *wire.Certificate
	Err    error
}

// OpenBatch verifies a slice of envelopes in one pass — the batch the
// route-verification layer accumulates per candidate-collection window —
// sharing the verifier's scratch and caches, so a batch of relayed copies of
// one reply costs one signature verification. Entries are processed in
// order; a nil envelope yields the nil-envelope error in its slot. The
// returned slice is reused by the next OpenBatch call.
func (v *Verifier) OpenBatch(secs []*wire.Secure, now time.Duration) []OpenResult {
	v.results = v.results[:0]
	for _, sec := range secs {
		pkt, cert, err := v.Open(sec, now)
		v.results = append(v.results, OpenResult{Packet: pkt, Cert: cert, Err: err})
	}
	return v.results
}

// lruCache is a deterministic bounded map: least-recently-used eviction via
// an intrusive list, no randomness, so cache behaviour is a pure function of
// the access sequence (the differential wall depends on that).
type lruCache struct {
	cap   int
	items map[cacheKey]*list.Element
	order *list.List // front = most recent
}

type lruEntry struct {
	key cacheKey
	val any
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, items: make(map[cacheKey]*list.Element), order: list.New()}
}

func (c *lruCache) get(key cacheKey) (any, bool) {
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key cacheKey, val any) {
	if e, ok := c.items[key]; ok {
		e.Value.(*lruEntry).val = val
		c.order.MoveToFront(e)
		return
	}
	if len(c.items) >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*lruEntry).key)
		}
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
}

func (c *lruCache) len() int { return len(c.items) }
