package pki

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"sync"
)

// memoCapacity bounds a Memo. A Table I world's own memo holds about 41
// entries. In the Figure 4 grid's shared memo a world adds about 30 new
// ones, and the grid runs cluster by cluster, so at the paper's 150
// replications one cluster step is about 4.5k entries: the memo holds a
// world's twins in the three nearest clusters and has evicted those
// further back. One 6-replication kind of the grid holds 1.6–1.9k entries
// in all.
const memoCapacity = 16384

// Memo remembers the results of the two deterministic ECDSA operations,
// RFC 6979 signing and verification, so that each distinct message is
// signed and verified once: across the worlds of a sweep that share a seed
// and mint the same credentials, or within one world whose agents verify
// the same certificates again and again. It is the only crypto cache;
// agents call Open directly. Both operations are pure functions of
// their inputs, so a hit returns exactly what the computation would: the
// memo changes CPU time, never a byte or a verdict.
//
// Verifications are keyed on SHA-256(X ‖ Y ‖ SHA-256(msg) ‖ sig) and
// signatures on SHA-256(D ‖ SHA-256(msg)). The memo holds at most
// memoCapacity entries of both kinds together and evicts the oldest first.
// It is safe for concurrent use. A nil *Memo computes every operation
// directly.
type Memo struct {
	capacity int

	mu       sync.Mutex
	verdicts map[memoKey]bool
	sigs     map[memoKey][SignatureSize]byte
	order    []memoSlot // insertion order; a ring once full
	next     int        // the oldest slot of a full ring
	stats    MemoStats
}

// MemoStats counts a Memo's lookups.
type MemoStats struct {
	SignHits, SignMisses     int
	VerifyHits, VerifyMisses int
	// Entries is the number of results held.
	Entries int
}

type memoKey [sha256.Size]byte

type memoSlot struct {
	key  memoKey
	sign bool
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return newMemo(memoCapacity) }

func newMemo(capacity int) *Memo {
	return &Memo{
		capacity: capacity,
		verdicts: make(map[memoKey]bool),
		sigs:     make(map[memoKey][SignatureSize]byte),
	}
}

// Stats returns the memo's lookup counts so far.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Entries = len(m.order)
	return s
}

// sign returns the framed RFC 6979 signature over digest by priv.
func (m *Memo) sign(priv *ecdsa.PrivateKey, digest *[sha256.Size]byte) ([]byte, error) {
	var in [p256Coord + sha256.Size]byte
	if m == nil || priv.Curve != elliptic.P256() || !fill32(in[:], priv.D) {
		return signFramed(priv, digest)
	}
	copy(in[p256Coord:], digest[:])
	key := memoKey(sha256.Sum256(in[:]))

	m.mu.Lock()
	framed, hit := m.sigs[key]
	if hit {
		m.stats.SignHits++
	} else {
		m.stats.SignMisses++
	}
	m.mu.Unlock()
	if hit {
		sig := make([]byte, SignatureSize)
		copy(sig, framed[:])
		return sig, nil
	}

	sig, err := signFramed(priv, digest)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if _, dup := m.sigs[key]; !dup {
		m.sigs[key] = [SignatureSize]byte(sig)
		m.admit(memoSlot{key: key, sign: true})
	}
	m.mu.Unlock()
	return sig, nil
}

// verify reports whether sig, a framed signature (SignatureSize bytes)
// whose ASN.1 body is asn1, is pub's signature over digest.
func (m *Memo) verify(pub *ecdsa.PublicKey, digest *[sha256.Size]byte, sig, asn1 []byte) bool {
	var in [2*p256Coord + sha256.Size + SignatureSize]byte
	if m == nil || pub.Curve != elliptic.P256() || !pointBytes(in[:2*p256Coord], pub) {
		return ecdsa.VerifyASN1(pub, digest[:], asn1)
	}
	copy(in[2*p256Coord:], digest[:])
	copy(in[2*p256Coord+sha256.Size:], sig)
	key := memoKey(sha256.Sum256(in[:]))

	m.mu.Lock()
	ok, hit := m.verdicts[key]
	if hit {
		m.stats.VerifyHits++
	} else {
		m.stats.VerifyMisses++
	}
	m.mu.Unlock()
	if hit {
		return ok
	}

	ok = ecdsa.VerifyASN1(pub, digest[:], asn1)
	m.mu.Lock()
	if _, dup := m.verdicts[key]; !dup {
		m.verdicts[key] = ok
		m.admit(memoSlot{key: key, sign: false})
	}
	m.mu.Unlock()
	return ok
}

// admit records a new entry's slot in insertion order, evicting the oldest
// entry once the memo is full. The caller holds mu.
func (m *Memo) admit(s memoSlot) {
	if len(m.order) < m.capacity {
		m.order = append(m.order, s)
		return
	}
	old := m.order[m.next]
	if old.sign {
		delete(m.sigs, old.key)
	} else {
		delete(m.verdicts, old.key)
	}
	m.order[m.next] = s
	m.next = (m.next + 1) % m.capacity
}
