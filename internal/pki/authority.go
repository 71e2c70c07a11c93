package pki

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"blackdp/internal/wire"
)

// Authority errors.
var (
	// ErrRenewalPaused reports a renewal denied because the presented
	// identity's certificate chain has been revoked or paused.
	ErrRenewalPaused = errors.New("pki: renewals paused for this identity")
	// ErrBadCertificate reports a certificate that fails verification.
	ErrBadCertificate = errors.New("pki: bad certificate")
	// ErrCertExpired reports a certificate past its expiry.
	ErrCertExpired = errors.New("pki: certificate expired")
	// ErrBadSignature reports an envelope whose signature does not verify.
	ErrBadSignature = errors.New("pki: bad signature")
	// ErrUnknownAuthority reports a certificate from an untrusted issuer.
	ErrUnknownAuthority = errors.New("pki: unknown authority")
)

// Credential is a node's operating identity: its current certificate plus
// the matching private key.
//
// A credential from Authority.Issue is provisioned lazily. Issue fixes
// everything the run can observe before the first signature — pseudonym,
// serial, authority and expiry — and the key pair plus the TA's signature
// over the certificate are minted on first use: the first Seal, or the
// first call to Certificate or PrivateKey. Minting derives the key from the
// stream handed to Issue, and signatures are deterministic, so it shares no
// state with other credentials and may happen on any shard. A credential is
// minted at most once, however many goroutines use it.
type Credential struct {
	cert wire.Certificate // PubKey and Signature stay empty until minted
	key  *ecdsa.PrivateKey

	mint sync.Once
	auth *Authority // issuer that mints the credential; nil when complete
	rand io.Reader  // key stream for minting
	err  error      // sticky minting failure
}

// NewCredential wraps a complete certificate and its private key, as a
// vehicle holds them after a CSR-style renewal (Authority.RenewFor).
func NewCredential(cert wire.Certificate, key *ecdsa.PrivateKey) *Credential {
	return &Credential{cert: cert, key: key}
}

// NodeID returns the pseudonym bound by the credential.
func (c *Credential) NodeID() wire.NodeID { return c.cert.Node }

// Serial returns the serial of the credential's certificate.
func (c *Credential) Serial() uint64 { return c.cert.Serial }

// Certificate returns the credential's signed certificate, minting the
// credential if it has not been used yet.
func (c *Credential) Certificate() (wire.Certificate, error) {
	if err := c.ensureMinted(); err != nil {
		return wire.Certificate{}, err
	}
	return c.cert, nil
}

// PrivateKey returns the credential's signing key, minting the credential
// if it has not been used yet.
func (c *Credential) PrivateKey() (*ecdsa.PrivateKey, error) {
	if err := c.ensureMinted(); err != nil {
		return nil, err
	}
	return c.key, nil
}

// ensureMinted mints a lazily issued credential exactly once; a failure is
// returned on this and every later use.
func (c *Credential) ensureMinted() error {
	c.mint.Do(func() {
		if c.auth == nil {
			return
		}
		c.err = c.auth.mint(c)
		c.auth, c.rand = nil, nil
	})
	return c.err
}

// TrustStore holds the public keys of all Trusted Authorities. It is
// pre-provisioned in every node, mirroring the paper's assumption that nodes
// can validate certificates with the available TA public key.
type TrustStore struct {
	keys map[wire.AuthorityID]*ecdsa.PublicKey
}

// NewTrustStore returns an empty trust store.
func NewTrustStore() *TrustStore {
	return &TrustStore{keys: make(map[wire.AuthorityID]*ecdsa.PublicKey)}
}

// Add registers an authority's public key.
func (ts *TrustStore) Add(id wire.AuthorityID, pub *ecdsa.PublicKey) {
	if pub == nil {
		panic("pki: TrustStore.Add with nil key")
	}
	ts.keys[id] = pub
}

// Lookup returns the public key for an authority, or nil if untrusted.
func (ts *TrustStore) Lookup(id wire.AuthorityID) *ecdsa.PublicKey {
	return ts.keys[id]
}

// Authorities returns the number of trusted authorities.
func (ts *TrustStore) Authorities() int { return len(ts.keys) }

// Clock yields the current virtual time; the simulation injects the
// scheduler's clock.
type Clock func() time.Duration

// Authority is one Trusted Authority node: it issues pseudonymous
// certificates, renews them (rotating the pseudonym to frustrate tracking),
// and processes revocations, pausing future renewals for revoked identities
// — including those reported by peer authorities.
type Authority struct {
	id     wire.AuthorityID
	key    *ecdsa.PrivateKey
	scheme Scheme
	clock  Clock
	trust  *TrustStore

	nextSerial uint64
	nextNode   uint64

	lineageOf     map[uint64]string // serial -> lineage, for locally issued certs
	latestSerial  map[string]uint64 // lineage -> most recent serial
	revoked       map[uint64]wire.RevokedCert
	pausedSerials map[uint64]bool
	pausedNodes   map[wire.NodeID]bool

	// Provisioning counters. Minting runs on whichever shard first uses a
	// credential, so both are atomic.
	issued, minted atomic.Uint64
}

// ProvisionStats counts an authority's lazy provisioning work.
type ProvisionStats struct {
	Issued uint64 // credentials issued by Issue or Renew
	Minted uint64 // of those, credentials whose key and certificate were minted
}

// Stats returns a snapshot of the provisioning counters.
func (a *Authority) Stats() ProvisionStats {
	return ProvisionStats{Issued: a.issued.Load(), Minted: a.minted.Load()}
}

// NewAuthority creates an authority with a fresh key pair (from rand; nil
// for crypto/rand) registered in trust, stamping certificates with clock.
func NewAuthority(id wire.AuthorityID, trust *TrustStore, clock Clock, scheme Scheme, rand io.Reader) (*Authority, error) {
	if trust == nil || clock == nil || scheme == nil {
		return nil, errors.New("pki: NewAuthority requires trust store, clock and scheme")
	}
	if id == 0 {
		return nil, errors.New("pki: authority id must be nonzero")
	}
	key, err := GenerateKey(rand)
	if err != nil {
		return nil, err
	}
	a := &Authority{
		id:            id,
		key:           key,
		scheme:        scheme,
		clock:         clock,
		trust:         trust,
		nextSerial:    1,
		nextNode:      1,
		lineageOf:     make(map[uint64]string),
		latestSerial:  make(map[string]uint64),
		revoked:       make(map[uint64]wire.RevokedCert),
		pausedSerials: make(map[uint64]bool),
		pausedNodes:   make(map[wire.NodeID]bool),
	}
	trust.Add(id, &key.PublicKey)
	return a, nil
}

// ID returns the authority's identity.
func (a *Authority) ID() wire.AuthorityID { return a.id }

// PublicKey returns the authority's verification key.
func (a *Authority) PublicKey() *ecdsa.PublicKey { return &a.key.PublicKey }

// Issue creates a fresh credential for the (TA-internal) identity lineage,
// valid for validity from now. Pseudonyms are allocated from the authority's
// private range so two authorities never collide. The key pair is derived
// from rand (nil for crypto/rand) on the credential's first use, when the
// certificate is signed; rand must stay private to the credential.
func (a *Authority) Issue(lineage string, validity time.Duration, rand io.Reader) (*Credential, error) {
	if lineage == "" {
		return nil, errors.New("pki: empty lineage")
	}
	if validity <= 0 {
		return nil, fmt.Errorf("pki: non-positive validity %v", validity)
	}
	if a.pausedLineage(lineage) {
		return nil, ErrRenewalPaused
	}
	a.issued.Add(1)
	return &Credential{cert: a.allocateCert(lineage, validity), auth: a, rand: rand}, nil
}

// mint derives c's key pair from c's own stream and signs its certificate,
// so concurrent mints on different shards share no state.
func (a *Authority) mint(c *Credential) error {
	key, err := GenerateKey(c.rand)
	if err != nil {
		return err
	}
	der, err := MarshalPublicKey(&key.PublicKey)
	if err != nil {
		return err
	}
	cert := c.cert
	cert.PubKey = der
	sig, err := a.scheme.Sign(a.key, cert.Preimage())
	if err != nil {
		return err
	}
	// Only the minted fields are written: NodeID and Serial stay readable
	// from other shards while a credential mints.
	c.cert.PubKey, c.cert.Signature, c.key = der, sig, key
	a.minted.Add(1)
	return nil
}

// IssueFor issues a certificate binding a fresh pseudonym to a
// vehicle-supplied public key (CSR-style issuance; the private key never
// leaves the vehicle). The same pause rules as Issue apply.
func (a *Authority) IssueFor(lineage string, pubDER []byte, validity time.Duration) (wire.Certificate, error) {
	if lineage == "" {
		return wire.Certificate{}, errors.New("pki: empty lineage")
	}
	if validity <= 0 {
		return wire.Certificate{}, fmt.Errorf("pki: non-positive validity %v", validity)
	}
	if a.pausedLineage(lineage) {
		return wire.Certificate{}, ErrRenewalPaused
	}
	if _, err := ParsePublicKey(pubDER); err != nil {
		return wire.Certificate{}, fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	return a.issueCert(lineage, pubDER, validity)
}

// RenewFor validates the presented certificate and issues a successor bound
// to the supplied public key, under a fresh pseudonym.
func (a *Authority) RenewFor(current wire.Certificate, pubDER []byte, validity time.Duration) (wire.Certificate, error) {
	if err := VerifyCertificate(&current, a.trust, a.clock(), a.scheme); err != nil {
		return wire.Certificate{}, err
	}
	if a.pausedSerials[current.Serial] || a.pausedNodes[current.Node] || a.isRevoked(current.Serial) {
		return wire.Certificate{}, ErrRenewalPaused
	}
	lineage, ok := a.lineageOf[current.Serial]
	if !ok {
		lineage = fmt.Sprintf("peer:%d:%d", current.Authority, current.Serial)
	}
	return a.IssueFor(lineage, pubDER, validity)
}

func (a *Authority) issueCert(lineage string, pubDER []byte, validity time.Duration) (wire.Certificate, error) {
	cert := a.allocateCert(lineage, validity)
	cert.PubKey = pubDER
	sig, err := a.scheme.Sign(a.key, cert.Preimage())
	if err != nil {
		return wire.Certificate{}, err
	}
	cert.Signature = sig
	return cert, nil
}

// allocateCert assigns the next pseudonym and serial in lineage, valid for
// validity from now: every certificate field except the key and signature.
func (a *Authority) allocateCert(lineage string, validity time.Duration) wire.Certificate {
	cert := wire.Certificate{
		Serial:    uint64(a.id)<<48 | a.nextSerial,
		Node:      wire.NodeID(uint64(a.id)<<48 | a.nextNode),
		Authority: a.id,
		Expiry:    a.clock() + validity,
	}
	a.nextNode++
	a.nextSerial++
	a.lineageOf[cert.Serial] = lineage
	a.latestSerial[lineage] = cert.Serial
	return cert
}

func (a *Authority) pausedLineage(lineage string) bool {
	serial, ok := a.latestSerial[lineage]
	return ok && (a.pausedSerials[serial] || a.isRevoked(serial))
}

// Renew validates the presented certificate (issued by any trusted
// authority) and, unless renewals are paused for it, issues a fresh
// credential under a new pseudonym. This is the identity-change service the
// paper's attackers exploit when they renew mid-detection.
func (a *Authority) Renew(current wire.Certificate, validity time.Duration, rand io.Reader) (*Credential, error) {
	if err := VerifyCertificate(&current, a.trust, a.clock(), a.scheme); err != nil {
		return nil, err
	}
	if a.pausedSerials[current.Serial] || a.pausedNodes[current.Node] || a.isRevoked(current.Serial) {
		return nil, ErrRenewalPaused
	}
	lineage, ok := a.lineageOf[current.Serial]
	if !ok {
		// Issued by a peer authority; track the chain under a synthetic
		// lineage so later revocations of the new certificate propagate.
		lineage = fmt.Sprintf("peer:%d:%d", current.Authority, current.Serial)
	}
	return a.Issue(lineage, validity, rand)
}

// Revoke marks the certificate revoked and pauses every future renewal of
// its lineage. It returns the blacklist record to distribute; the record
// keeps the certificate's natural expiry so holders can drop it once the
// certificate would have lapsed anyway.
func (a *Authority) Revoke(node wire.NodeID, serial uint64) wire.RevokedCert {
	expiry := a.clock()
	if lineage, ok := a.lineageOf[serial]; ok {
		if latest := a.latestSerial[lineage]; latest != 0 {
			a.pausedSerials[latest] = true
		}
	}
	rc := wire.RevokedCert{Node: node, CertSerial: serial, Expiry: expiry}
	if cur, ok := a.revoked[serial]; ok {
		rc = cur
	} else {
		a.revoked[serial] = rc
	}
	a.pausedSerials[serial] = true
	a.pausedNodes[node] = true
	return rc
}

// RevokeCert is Revoke with the certificate's true expiry preserved in the
// record, for callers that hold the full certificate.
func (a *Authority) RevokeCert(cert wire.Certificate) wire.RevokedCert {
	rc := a.Revoke(cert.Node, cert.Serial)
	if cert.Expiry > rc.Expiry {
		rc.Expiry = cert.Expiry
		a.revoked[cert.Serial] = rc
	}
	return rc
}

// RecordPeerRevocation ingests a revocation notice from a peer authority,
// pausing renewals for the named pseudonym and serial.
func (a *Authority) RecordPeerRevocation(rc wire.RevokedCert) {
	a.revoked[rc.CertSerial] = rc
	a.pausedSerials[rc.CertSerial] = true
	a.pausedNodes[rc.Node] = true
	if lineage, ok := a.lineageOf[rc.CertSerial]; ok {
		if latest := a.latestSerial[lineage]; latest != 0 {
			a.pausedSerials[latest] = true
		}
	}
}

func (a *Authority) isRevoked(serial uint64) bool {
	_, ok := a.revoked[serial]
	return ok
}

// IsRevoked reports whether the serial has been revoked (locally or via a
// peer notice).
func (a *Authority) IsRevoked(serial uint64) bool { return a.isRevoked(serial) }

// PruneExpired drops revocation records whose certificates have lapsed
// naturally, bounding storage as the paper requires. It returns the number
// of records dropped.
func (a *Authority) PruneExpired() int {
	now := a.clock()
	n := 0
	for serial, rc := range a.revoked {
		if rc.Expiry <= now {
			delete(a.revoked, serial)
			delete(a.pausedSerials, serial)
			delete(a.pausedNodes, rc.Node)
			n++
		}
	}
	return n
}

// RevokedCount returns the number of live revocation records.
func (a *Authority) RevokedCount() int { return len(a.revoked) }

// VerifyCertificate checks that the certificate was signed by a trusted
// authority and has not expired at time now.
func VerifyCertificate(cert *wire.Certificate, trust *TrustStore, now time.Duration, scheme Scheme) error {
	if cert == nil {
		return fmt.Errorf("%w: nil", ErrBadCertificate)
	}
	taPub := trust.Lookup(cert.Authority)
	if taPub == nil {
		return fmt.Errorf("%w: authority %d", ErrUnknownAuthority, cert.Authority)
	}
	if cert.Expiry <= now {
		return fmt.Errorf("%w: at %v, expired %v", ErrCertExpired, now, cert.Expiry)
	}
	if !scheme.Verify(taPub, cert.Preimage(), cert.Signature) {
		return fmt.Errorf("%w: authority signature invalid", ErrBadCertificate)
	}
	return nil
}

// Seal wraps inner as the paper's secure packet: the marshalled inner bytes
// are signed with the credential's key, and the credential's certificate is
// attached so any receiver can verify without prior contact.
func Seal(inner wire.Packet, cred *Credential, scheme Scheme) (*wire.Secure, error) {
	if cred == nil {
		return nil, errors.New("pki: Seal with nil credential")
	}
	if err := cred.ensureMinted(); err != nil {
		return nil, err
	}
	body, err := inner.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("pki: sealing %v: %w", inner.Kind(), err)
	}
	sig, err := scheme.Sign(cred.key, body)
	if err != nil {
		return nil, err
	}
	return &wire.Secure{Inner: body, Cert: cred.cert, Signature: sig}, nil
}

// Open verifies a secure packet end to end — certificate against the trust
// store, signature against the certificate's key — and returns the decoded
// inner packet plus the authenticated sender certificate.
func Open(sec *wire.Secure, trust *TrustStore, now time.Duration, scheme Scheme) (wire.Packet, *wire.Certificate, error) {
	if sec == nil {
		return nil, nil, fmt.Errorf("%w: nil envelope", ErrBadSignature)
	}
	if err := VerifyCertificate(&sec.Cert, trust, now, scheme); err != nil {
		return nil, nil, err
	}
	senderPub, err := ParsePublicKey(sec.Cert.PubKey)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	if !scheme.Verify(senderPub, sec.Inner, sec.Signature) {
		return nil, nil, ErrBadSignature
	}
	inner, err := wire.Decode(sec.Inner)
	if err != nil {
		return nil, nil, fmt.Errorf("pki: opening envelope: %w", err)
	}
	cert := sec.Cert
	return inner, &cert, nil
}
