package core

import (
	"errors"
	"fmt"
	"time"

	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/trace"
	"blackdp/internal/wire"
)

// AuthorityAgent is one Trusted Authority node: the pki.Authority state
// machine attached to the wired backbone, processing revocation requests
// from cluster heads, exchanging revocation notices with peer authorities,
// and serving certificate renewals relayed by heads.
type AuthorityAgent struct {
	env  Env
	auth *pki.Authority
	cred *pki.Credential
	ep   *radio.BackboneEndpoint

	served       []wire.ClusterID // clusters whose heads report here
	peers        []wire.NodeID    // other TA nodes on the backbone
	certValidity time.Duration

	stats AuthorityStats
}

// AuthorityStats counts TA activity.
type AuthorityStats struct {
	Revocations     uint64
	PeerNotices     uint64 // notices received from peers
	NoticesSent     uint64
	RenewalsGranted uint64
	RenewalsDenied  uint64
}

// taCertValidity is the lifetime of infrastructure certificates; effectively
// forever at simulation scale.
const taCertValidity = 1000 * time.Hour

// NewAuthorityAgent creates a TA responsible for the given clusters,
// attached to the backbone at chain position hop. Vehicle certificates it
// issues are valid for certValidity.
func NewAuthorityAgent(env Env, id wire.AuthorityID, hop int, served []wire.ClusterID, certValidity time.Duration) (*AuthorityAgent, error) {
	env.check()
	if certValidity <= 0 {
		return nil, fmt.Errorf("core: non-positive certificate validity %v", certValidity)
	}
	// Key generation consumes a variable number of random bytes (rejection
	// sampling inside crypto/ecdsa), so every generation gets its own
	// derived stream — otherwise that variability would shift later draws
	// on the shared stream and break run determinism.
	auth, err := pki.NewAuthority(id, env.Trust, env.Sched.Now, env.Scheme,
		env.RNG.Split(fmt.Sprintf("ta-key-%d", id)).Reader())
	if err != nil {
		return nil, err
	}
	cred, err := auth.Issue(fmt.Sprintf("ta:%d", id), taCertValidity,
		env.RNG.Split(fmt.Sprintf("ta-cred-%d", id)).Reader())
	if err != nil {
		return nil, err
	}
	a := &AuthorityAgent{
		env:          env,
		auth:         auth,
		cred:         cred,
		served:       append([]wire.ClusterID(nil), served...),
		certValidity: certValidity,
	}
	ep, err := env.Backbone.Attach(cred.NodeID(), hop, a.handleBackbone)
	if err != nil {
		return nil, err
	}
	a.ep = ep
	for _, c := range served {
		if err := env.Dir.AddAuthority(c, cred.NodeID(), id); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// NodeID returns the TA's backbone identity.
func (a *AuthorityAgent) NodeID() wire.NodeID { return a.cred.NodeID() }

// AuthorityID returns the TA's authority identity.
func (a *AuthorityAgent) AuthorityID() wire.AuthorityID { return a.auth.ID() }

// Authority exposes the underlying PKI state machine (for provisioning).
func (a *AuthorityAgent) Authority() *pki.Authority { return a.auth }

// Stats returns a snapshot of TA counters.
func (a *AuthorityAgent) Stats() AuthorityStats { return a.stats }

// SetPeers wires the other TA nodes, once all authorities exist.
func (a *AuthorityAgent) SetPeers(peers []wire.NodeID) {
	a.peers = a.peers[:0]
	for _, p := range peers {
		if p != a.cred.NodeID() {
			a.peers = append(a.peers, p)
		}
	}
}

// IssueVehicleCredential provisions a vehicle identity before the run (the
// paper's TA distributes credentials out of band).
func (a *AuthorityAgent) IssueVehicleCredential(lineage string) (*pki.Credential, error) {
	return a.auth.Issue(lineage, a.certValidity, a.env.RNG.Split("issue-"+lineage).Reader())
}

// IssueHeadCredential provisions an RSU identity.
func (a *AuthorityAgent) IssueHeadCredential(cluster wire.ClusterID) (*pki.Credential, error) {
	lineage := fmt.Sprintf("rsu:%d", cluster)
	return a.auth.Issue(lineage, taCertValidity, a.env.RNG.Split("issue-"+lineage).Reader())
}

func (a *AuthorityAgent) handleBackbone(from wire.NodeID, payload []byte) {
	pkt, err := wire.Decode(payload)
	if err != nil {
		return
	}
	switch p := pkt.(type) {
	case *wire.RevocationReq:
		a.handleRevocationReq(p, from)
	case *wire.RevocationNotice:
		a.handlePeerNotice(p)
	case *wire.Secure:
		// Heads relay vehicles' sealed renewal requests verbatim so the TA
		// can authenticate the presenter's certificate itself.
		inner, cert, err := pki.Open(p, a.env.Trust, a.env.Sched.Now(), a.env.Scheme)
		if err != nil {
			return
		}
		if req, ok := inner.(*wire.RenewalReq); ok {
			a.handleRenewal(req, cert, from)
		}
	default:
		// Heads exchange detection traffic among themselves; not ours.
	}
}

// handleRevocationReq processes a cluster head's report of a confirmed
// attacker: revoke, pause renewals, and notify peer TAs plus every head so
// the revoked certificate is blacklisted network-wide.
func (a *AuthorityAgent) handleRevocationReq(p *wire.RevocationReq, from wire.NodeID) {
	if !a.env.Dir.IsHead(from) {
		return
	}
	rc := a.auth.Revoke(p.Suspect, p.CertSerial)
	if rc.Expiry <= a.env.Sched.Now() {
		// Revoke stamps "now" when it cannot know the certificate's natural
		// expiry; keep the record alive for the vehicle-cert validity.
		rc.Expiry = a.env.Sched.Now() + a.certValidity
	}
	a.stats.Revocations++
	a.env.record(trace.Event{Kind: trace.Revoked, Node: a.NodeID(), Suspect: p.Suspect, Count: p.CertSerial, Peer: from})

	notice := &wire.RevocationNotice{Authority: a.auth.ID(), Revoked: rc}
	b, err := notice.MarshalBinary()
	if err != nil {
		panic("core: marshalling RevocationNotice: " + err.Error())
	}
	sent := a.stats.NoticesSent
	for _, peer := range a.peers {
		if err := a.ep.Send(peer, b); err == nil {
			a.stats.NoticesSent++
		}
	}
	for c := wire.ClusterID(1); int(c) <= a.env.Highway.Clusters(); c++ {
		head, ok := a.env.Dir.HeadOf(c)
		if !ok || head == from {
			continue
		}
		if err := a.ep.Send(head, b); err == nil {
			a.stats.NoticesSent++
		}
	}
	a.env.record(trace.Event{Kind: trace.IsolationPackets, Node: a.NodeID(), Suspect: p.Suspect, Count: a.stats.NoticesSent - sent})
}

// handlePeerNotice ingests a peer TA's revocation, pausing renewals here and
// informing the heads this TA serves.
func (a *AuthorityAgent) handlePeerNotice(p *wire.RevocationNotice) {
	a.auth.RecordPeerRevocation(p.Revoked)
	a.stats.PeerNotices++
	a.env.record(trace.Event{Kind: trace.RenewalsPaused, Node: a.NodeID(), Suspect: p.Revoked.Node, Count: uint64(p.Authority)})
}

// handleRenewal serves a pseudonym renewal relayed by a head. The head that
// relayed it receives the response and forwards it to the vehicle.
func (a *AuthorityAgent) handleRenewal(p *wire.RenewalReq, presented *wire.Certificate, from wire.NodeID) {
	resp := &wire.RenewalResp{Requester: p.Current}
	cert, err := a.renewCert(p, presented)
	if err != nil {
		resp.Denied = true
		a.stats.RenewalsDenied++
		a.env.record(trace.Event{Kind: trace.RenewalRefused, Node: a.NodeID(), Peer: p.Current, Err: err})
	} else {
		resp.Cert = cert
		a.stats.RenewalsGranted++
		a.env.record(trace.Event{Kind: trace.Renewed, Node: a.NodeID(), Peer: p.Current, Dest: cert.Node})
	}
	b, err := resp.MarshalBinary()
	if err != nil {
		panic("core: marshalling RenewalResp: " + err.Error())
	}
	if err := a.ep.Send(from, b); err != nil {
		a.env.record(trace.Event{Kind: trace.RenewalRelayFailed, Node: a.NodeID(), Err: err})
	}
}

func (a *AuthorityAgent) renewCert(p *wire.RenewalReq, presented *wire.Certificate) (wire.Certificate, error) {
	if len(p.NewPubKey) == 0 {
		return wire.Certificate{}, errors.New("core: renewal without a public key")
	}
	if presented == nil || presented.Node != p.Current || presented.Serial != p.CertSerial {
		return wire.Certificate{}, errors.New("core: renewal identity does not match the sealing certificate")
	}
	return a.auth.RenewFor(*presented, p.NewPubKey, a.certValidity)
}
