package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"blackdp/internal/aodv"
	"blackdp/internal/cluster"
	"blackdp/internal/mobility"
	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/trace"
	"blackdp/internal/wire"
)

// Head protocol timers and bounds. The paper gives none; they are this
// reproduction's fixed choices.
const (
	// baitTimeout is how long the head waits for a suspect's reply to one
	// bait probe.
	baitTimeout = 800 * time.Millisecond
	// baitRetries is how many extra probes a silent suspect receives
	// before being declared legitimate.
	baitRetries = 1
	// maxForwards bounds how many times a d_req may be handed between
	// heads before the suspect is declared unreachable.
	maxForwards = 3
	// forwardRetries is how many times a failed backbone hand-off (crashed
	// peer, severed link) is retried with capped exponential backoff before
	// the suspect is declared unreachable.
	forwardRetries = 5
	// forwardTimeout is the initial backbone retry delay; each retry doubles
	// it, capped at 4x.
	forwardTimeout = time.Second
)

// HeadConfig tunes the cluster head's detection engine.
type HeadConfig struct {
	// StageDelay separates a received probe reply from the next probe,
	// modelling the head's verification-table processing interval.
	StageDelay time.Duration
	// AuthProcessing is the simulated CPU time the head spends verifying
	// one sealed packet from a vehicle (signature + certificate checks).
	// Zero models a head with unbounded verification capacity; a positive
	// value creates the queueing bottleneck the paper's SIII-C warns about
	// when cluster density is high.
	AuthProcessing time.Duration
	// FogNodes is the number of additional fog verifiers the head can
	// offload authentication to (the paper's proposed mitigation). The
	// head itself always counts as one server, so the verification stage
	// runs as a (1+FogNodes)-server queue.
	FogNodes int
	// SingleProbe is the DESIGN.md ablation of the paper's two-probe bait:
	// convict on the first reply to the fake-destination request, without
	// the higher-sequence follow-up. Two detection packets cheaper per
	// case — but the follow-up carries the next-hop inquiry, so
	// cooperative accomplices are never exposed. Off by default.
	SingleProbe bool
}

// HeadAgentStats counts detection-engine activity.
type HeadAgentStats struct {
	DReqReceived   uint64
	DReqDuplicates uint64
	DReqForwarded  uint64
	Examinations   uint64
	Unreachable    uint64
	Revocations    uint64
	AuthFailures   uint64        // sealed packets that failed verification
	AuthQueued     uint64        // verifications that passed through the server queue
	AuthMaxLatency time.Duration // worst queueing + processing delay observed
}

// errNoAuthority reports a cluster no trusted authority serves, so renewals
// cannot be relayed nor revocations filed from it.
var errNoAuthority = errors.New("core: no authority serves this cluster")

// reporterRef identifies who asked for a detection and where to send the
// verdict.
type reporterRef struct {
	node    wire.NodeID
	cluster wire.ClusterID
	nonce   uint64 // the d_req's retransmission nonce, 0 if absent
}

// resolvedCase remembers a delivered verdict so a retransmitted d_req (same
// nonce — the verdict was lost in flight) can be re-answered without burning
// a second examination. A different nonce is a genuinely new report.
type resolvedCase struct {
	verdict  wire.Verdict
	teammate wire.NodeID
	nonces   map[uint64]bool
}

// detectionCase is one entry of the paper's verification table, plus the
// live probe state.
type detectionCase struct {
	suspect  wire.NodeID
	serial   uint64 // certificate serial to revoke (from the d_req or probe envelope)
	expiry   time.Duration
	reporter []reporterRef

	fakeDest   wire.NodeID
	disposable *radio.Interface
	stage      int // 1 = first probe, 2 = violation probe, 3 = teammate probe
	priorSeq   wire.SeqNum
	teammate   wire.NodeID
	retries    int
	forwards   uint8
	timer      sim.Timer
}

// HeadAgent is an RSU cluster head: membership, AODV relay, BlackDP
// detection and isolation.
type HeadAgent struct {
	env  Env
	cfg  HeadConfig
	cred *pki.Credential

	cluster wire.ClusterID
	pos     mobility.Position
	ifc     *radio.Interface
	router  *aodv.Router
	memb    *cluster.Head
	ep      *radio.BackboneEndpoint

	cases           map[wire.NodeID]*detectionCase
	resolved        map[wire.NodeID]*resolvedCase
	pendingRenewals map[wire.NodeID]bool
	verifiers       []time.Duration // per-server busy-until (head + fog nodes)
	crashed         bool
	pruneFn         func() // reusable prune callback (built on first schedule)
	stats           HeadAgentStats
}

// NewHeadAgent creates the head for cluster c with the given (TA-issued)
// credential, mounts its radio at the cluster centre, and attaches it to the
// backbone.
func NewHeadAgent(env Env, cfg HeadConfig, cred *pki.Credential, c wire.ClusterID) (*HeadAgent, error) {
	env.check()
	if cred == nil {
		return nil, fmt.Errorf("core: head for cluster %d requires a credential", c)
	}
	h := &HeadAgent{
		env:             env,
		cfg:             cfg,
		cred:            cred,
		cluster:         c,
		pos:             env.Highway.ClusterCenter(int(c)),
		cases:           make(map[wire.NodeID]*detectionCase),
		resolved:        make(map[wire.NodeID]*resolvedCase),
		pendingRenewals: make(map[wire.NodeID]bool),
	}
	h.verifiers = make([]time.Duration, 1+h.cfg.FogNodes)
	loc := mobility.Static{Pos: h.pos, H: env.Highway}
	h.ifc = env.AttachRadio(cred.NodeID(), loc, h.handleFrame)
	h.router = aodv.New(env.Sched, env.RNG.Split(fmt.Sprintf("head-router-%d", c)), h.ifc,
		h.sealPacket, aodv.Callbacks{
			Cluster: func() wire.ClusterID { return h.cluster },
			AcceptReply: func(rep *wire.RREP, from wire.NodeID) bool {
				// The head's own relay plane must not carry routes through
				// nodes it has blacklisted.
				return !h.memb.IsBlacklisted(rep.Issuer) && !h.memb.IsBlacklisted(from)
			},
		})
	h.memb = cluster.NewHead(cred.NodeID(), c, env.Highway, env.Sched,
		func(to wire.NodeID, payload []byte) { h.ifc.Send(to, payload) }, cluster.HeadCallbacks{})
	ep, err := env.Backbone.Attach(cred.NodeID(), int(c), h.handleBackbone)
	if err != nil {
		return nil, err
	}
	h.ep = ep
	if err := env.Dir.AddHead(c, cred.NodeID()); err != nil {
		return nil, err
	}
	return h, nil
}

// Start begins AODV participation and periodic membership pruning.
func (h *HeadAgent) Start() {
	h.router.Start()
	h.schedulePrune()
}

func (h *HeadAgent) schedulePrune() {
	if h.pruneFn == nil {
		h.pruneFn = func() {
			if !h.crashed {
				h.memb.Prune()
			}
			h.schedulePrune()
		}
	}
	h.env.Sched.After(5*time.Second, h.pruneFn)
}

// Crash takes the head fully offline: radio silenced, backbone port down,
// every open detection case aborted, in-flight renewals dropped. Membership
// and blacklist state survive — RSU storage is non-volatile — so Recover
// resumes service where the crash left it. The fault layer drives this.
func (h *HeadAgent) Crash() {
	if h.crashed {
		return
	}
	h.crashed = true
	h.ifc.SetSilenced(true)
	h.ep.SetDown(true)
	// Abort open cases in deterministic order; their disposable identities
	// and timers die with the head.
	suspects := make([]wire.NodeID, 0, len(h.cases))
	for s := range h.cases {
		suspects = append(suspects, s)
	}
	sort.Slice(suspects, func(i, j int) bool { return suspects[i] < suspects[j] })
	for _, s := range suspects {
		h.closeCase(h.cases[s])
	}
	h.pendingRenewals = make(map[wire.NodeID]bool)
	h.env.record(trace.Event{Kind: trace.HeadCrashed, Node: h.NodeID(), Cluster: h.cluster})
}

// Recover brings a crashed head back online.
func (h *HeadAgent) Recover() {
	if !h.crashed {
		return
	}
	h.crashed = false
	h.ifc.SetSilenced(false)
	h.ep.SetDown(false)
	h.env.record(trace.Event{Kind: trace.HeadRecovered, Node: h.NodeID(), Cluster: h.cluster})
}

// Crashed reports whether the head is currently offline.
func (h *HeadAgent) Crashed() bool { return h.crashed }

// NodeID returns the head's pseudonym.
func (h *HeadAgent) NodeID() wire.NodeID { return h.cred.NodeID() }

// Credential returns the head's operating credential.
func (h *HeadAgent) Credential() *pki.Credential { return h.cred }

// Cluster returns the cluster this head serves.
func (h *HeadAgent) Cluster() wire.ClusterID { return h.cluster }

// Membership exposes the membership table (for scenario assertions).
func (h *HeadAgent) Membership() *cluster.Head { return h.memb }

// Router exposes the AODV instance (for scenario assertions).
func (h *HeadAgent) Router() *aodv.Router { return h.router }

// Stats returns a snapshot of detection counters.
func (h *HeadAgent) Stats() HeadAgentStats { return h.stats }

// sealPacket signs control packets the head's router originates.
func (h *HeadAgent) sealPacket(p wire.Packet) ([]byte, error) {
	if _, ok := p.(*wire.RREP); ok {
		sec, err := pki.Seal(p, h.cred, h.env.Scheme)
		if err != nil {
			return nil, err
		}
		return sec.MarshalBinary()
	}
	return p.MarshalBinary()
}

func (h *HeadAgent) seal(p wire.Packet) []byte {
	sec, err := pki.Seal(p, h.cred, h.env.Scheme)
	if err != nil {
		panic("core: sealing head packet: " + err.Error())
	}
	b, err := sec.MarshalBinary()
	if err != nil {
		panic("core: marshalling head packet: " + err.Error())
	}
	return b
}

// handleFrame dispatches radio frames: membership and detection packets are
// the head's own; AODV traffic goes to the router.
func (h *HeadAgent) handleFrame(f radio.Frame) {
	switch f.Kind() {
	case wire.KindRREQ, wire.KindRREP, wire.KindRERR, wire.KindHello, wire.KindData:
		// Relay traffic dominates; skip the generic decode and let the
		// router's typed fast paths handle it. The sender still counts as
		// alive for membership purposes, exactly as before.
		h.memb.Touch(f.From)
		h.router.HandleFrame(f)
		return
	}
	pkt, err := wire.Decode(f.Payload)
	if err != nil {
		return
	}
	h.memb.Touch(f.From)

	var env *wire.Secure
	inner := pkt
	if sec, ok := pkt.(*wire.Secure); ok {
		env = sec
		inner, err = wire.Decode(sec.Inner)
		if err != nil {
			return
		}
	}

	switch p := inner.(type) {
	case *wire.JoinReq, *wire.Leave:
		h.memb.HandlePacket(inner, f.From)
	case *wire.DetectReq:
		h.handleDetectReqRadio(p, env)
	case *wire.RenewalReq:
		h.relayRenewal(env, f)
	default:
		// Secure routing packets and cluster packets the head does not
		// handle itself go to the router, which updates its neighbour
		// table from them.
		h.router.HandleDecoded(inner, env, f)
	}
}

// afterVerification schedules fn once a verification server (the head
// itself, or a fog node) has spent AuthProcessing on the packet. With no
// configured cost, fn runs synchronously.
func (h *HeadAgent) afterVerification(fn func()) {
	if h.cfg.AuthProcessing <= 0 {
		fn()
		return
	}
	now := h.env.Sched.Now()
	best := 0
	for i, busy := range h.verifiers {
		if busy < h.verifiers[best] {
			best = i
		}
	}
	start := h.verifiers[best]
	if start < now {
		start = now
	}
	done := start + h.cfg.AuthProcessing
	h.verifiers[best] = done
	h.stats.AuthQueued++
	if wait := done - now; wait > h.stats.AuthMaxLatency {
		h.stats.AuthMaxLatency = wait
	}
	h.env.Sched.At(done, fn)
}

// handleDetectReqRadio authenticates and admits a member's d_req. The paper
// requires heads to authenticate reporters so forged reports cannot
// disconnect legitimate nodes; the verification itself occupies a
// verification server for AuthProcessing.
func (h *HeadAgent) handleDetectReqRadio(p *wire.DetectReq, env *wire.Secure) {
	if env == nil {
		h.stats.AuthFailures++
		return
	}
	h.afterVerification(func() {
		_, cert, err := pki.Open(env, h.env.Trust, h.env.Sched.Now(), h.env.Scheme)
		if err != nil || cert.Node != p.Reporter {
			h.stats.AuthFailures++
			return
		}
		h.admitDetectReq(p)
	})
}

// handleBackbone processes infrastructure traffic: forwarded cases, verdict
// relays, revocation notices and renewal responses.
func (h *HeadAgent) handleBackbone(from wire.NodeID, payload []byte) {
	pkt, err := wire.Decode(payload)
	if err != nil {
		return
	}
	switch p := pkt.(type) {
	case *wire.DetectReq:
		if !h.env.Dir.IsHead(from) {
			return
		}
		h.admitDetectReq(p)
	case *wire.DetectResp:
		// A verdict for one of my members, decided elsewhere.
		h.deliverVerdict(p, reporterRef{node: p.Reporter, cluster: h.cluster})
	case *wire.RevocationNotice:
		// The sender counted this notice as an isolation packet.
		h.addRevoked(p.Revoked)
	case *wire.RenewalResp:
		if !h.pendingRenewals[p.Requester] {
			return
		}
		delete(h.pendingRenewals, p.Requester)
		h.ifc.Send(p.Requester, h.seal(p))
	}
}

// relayRenewal forwards a member's sealed renewal request to this cluster's
// TA verbatim, remembering who to answer.
func (h *HeadAgent) relayRenewal(env *wire.Secure, f radio.Frame) {
	if env == nil {
		h.stats.AuthFailures++
		return
	}
	h.afterVerification(func() {
		inner, cert, err := pki.Open(env, h.env.Trust, h.env.Sched.Now(), h.env.Scheme)
		if err != nil {
			h.stats.AuthFailures++
			return
		}
		req, ok := inner.(*wire.RenewalReq)
		if !ok || cert.Node != req.Current {
			h.stats.AuthFailures++
			return
		}
		ta, ok := h.env.Dir.AuthorityOf(h.cluster)
		if !ok {
			h.env.record(trace.Event{Kind: trace.RenewalRelayFailed, Node: h.NodeID(), Err: errNoAuthority})
			return
		}
		h.pendingRenewals[req.Current] = true
		if err := h.ep.Send(ta, f.Payload); err != nil {
			h.env.record(trace.Event{Kind: trace.RenewalRelayFailed, Node: h.NodeID(), Err: err})
		}
	})
}

// admitDetectReq is the verification-table entry point for both local and
// forwarded d_reqs.
func (h *HeadAgent) admitDetectReq(p *wire.DetectReq) {
	if h.crashed {
		return // a deferred verification can land after the crash
	}
	h.stats.DReqReceived++
	rep := reporterRef{node: p.Reporter, cluster: p.ReporterCluster, nonce: p.Nonce}

	if rc, ok := h.resolved[p.Suspect]; ok && p.Nonce != 0 && rc.nonces[p.Nonce] {
		// Same nonce as an already-answered report: the verdict was lost in
		// flight. Replay it instead of re-examining the suspect.
		h.stats.DReqDuplicates++
		h.respondVerdict(&detectionCase{suspect: p.Suspect, reporter: []reporterRef{rep}}, rc.verdict, rc.teammate)
		return
	}
	if h.memb.IsBlacklisted(p.Suspect) {
		h.respond(&detectionCase{suspect: p.Suspect, reporter: []reporterRef{rep}}, wire.VerdictAlreadyKnown)
		return
	}
	if c, ok := h.cases[p.Suspect]; ok {
		// Redundant report for a suspect already under examination: record
		// the reporter, send no extra probes (the paper's congestion
		// optimisation).
		h.stats.DReqDuplicates++
		for i, r := range c.reporter {
			if r.node == rep.node {
				// A retransmission while the case runs; the reporter may
				// have re-registered elsewhere since, so refresh the
				// delivery route for its eventual verdict.
				c.reporter[i].cluster = rep.cluster
				return
			}
		}
		c.reporter = append(c.reporter, rep)
		return
	}

	c := &detectionCase{
		suspect:  p.Suspect,
		serial:   p.SuspectSerial,
		reporter: []reporterRef{rep},
		fakeDest: p.FakeDest,
		priorSeq: p.PriorSeq,
		forwards: p.Forwards,
	}

	if h.memb.IsMember(p.Suspect) {
		h.env.record(trace.Event{Kind: trace.Examining, Node: h.NodeID(), Suspect: p.Suspect, Peer: rep.node})
		h.cases[p.Suspect] = c
		h.stats.Examinations++
		h.beginExamination(c)
		return
	}
	// Not mine: hand the case to whoever should have it.
	h.routeCaseElsewhere(c, p)
}

// routeCaseElsewhere forwards a d_req toward the suspect's cluster, or
// declares the suspect unreachable.
func (h *HeadAgent) routeCaseElsewhere(c *detectionCase, p *wire.DetectReq) {
	if c.forwards >= maxForwards {
		h.respond(c, wire.VerdictUnreachable)
		return
	}
	var target wire.NodeID
	switch {
	case p.SuspectCluster != 0 && p.SuspectCluster != h.cluster:
		if head, ok := h.env.Dir.HeadOf(p.SuspectCluster); ok {
			target = head
		}
	case h.memb.InHistory(p.Suspect):
		// The suspect recently left; chase it into the adjacent cluster in
		// its direction of travel.
		if m, ok := h.memb.HistoryRecord(p.Suspect); ok {
			next := h.cluster + 1
			if !m.East {
				next = h.cluster - 1
			}
			if head, ok := h.env.Dir.HeadOf(next); ok {
				target = head
			}
		}
	}
	if target == 0 {
		h.stats.Unreachable++
		h.respond(c, wire.VerdictUnreachable)
		return
	}
	fwd := *p
	fwd.SuspectCluster = 0 // the receiving head re-resolves
	fwd.Forwards = c.forwards + 1
	fwd.FakeDest = c.fakeDest
	fwd.PriorSeq = c.priorSeq
	b, err := fwd.MarshalBinary()
	if err != nil {
		panic("core: marshalling forwarded d_req: " + err.Error())
	}
	h.forwardCase(c, fwd.Suspect, target, b, 0)
}

// forwardCase hands the marshalled d_req to the target head, retrying failed
// backbone sends (crashed peer, severed link) with capped exponential
// backoff before giving up on the suspect as unreachable.
func (h *HeadAgent) forwardCase(c *detectionCase, suspect, target wire.NodeID, b []byte, attempt int) {
	if h.crashed {
		return
	}
	if err := h.ep.Send(target, b); err == nil {
		h.stats.DReqForwarded++
		h.env.record(trace.Event{Kind: trace.DReqForwarded, Node: h.NodeID(), Suspect: suspect, Peer: target})
		return
	}
	if attempt >= forwardRetries {
		h.stats.Unreachable++
		h.respond(c, wire.VerdictUnreachable)
		return
	}
	backoff := forwardTimeout << uint(attempt)
	if cap := 4 * forwardTimeout; backoff > cap {
		backoff = cap
	}
	h.env.record(trace.Event{Kind: trace.HandoffRetry, Node: h.NodeID(), Suspect: suspect, Peer: target, Count: uint64(attempt + 1), Delay: backoff})
	h.env.Sched.After(backoff, func() { h.forwardCase(c, suspect, target, b, attempt+1) })
}

// beginExamination starts (or resumes) probing a suspect that is registered
// in this cluster.
func (h *HeadAgent) beginExamination(c *detectionCase) {
	if c.fakeDest == 0 {
		// Fresh case: invent the nonexistent destination and the disposable
		// identity used to fool the attacker.
		c.fakeDest = h.randomIdentity()
	}
	if c.disposable == nil {
		disposable := h.randomIdentity()
		loc := mobility.Static{Pos: h.pos, H: h.env.Highway}
		c.disposable = h.env.AttachRadio(disposable, loc, func(f radio.Frame) { h.handleProbeReply(c, f) })
	}
	if c.priorSeq > 0 {
		c.stage = 2
		h.sendProbe(c, c.priorSeq+1, true)
		return
	}
	c.stage = 1
	h.sendProbe(c, 0, false)
}

// randomIdentity draws a pseudonym-shaped identity outside any authority's
// allocation range (authorities allocate below 1<<63).
func (h *HeadAgent) randomIdentity() wire.NodeID {
	return wire.NodeID(h.env.RNG.Uint64() | 1<<63)
}

// sendProbe transmits one bait RREQ to the suspect from the disposable
// identity. TTL 1 keeps the probe strictly point-to-point.
func (h *HeadAgent) sendProbe(c *detectionCase, demandSeq wire.SeqNum, wantNext bool) {
	req := &wire.RREQ{
		FloodID:   uint32(h.env.RNG.Uint64()),
		Origin:    c.disposable.NodeID(),
		OriginSeq: 1,
		Dest:      c.fakeDest,
		DestSeq:   demandSeq,
		TTL:       1,
		WantNext:  wantNext,
	}
	b, err := req.MarshalBinary()
	if err != nil {
		panic("core: marshalling probe: " + err.Error())
	}
	target := c.suspect
	if c.stage == 3 {
		target = c.teammate
	}
	c.disposable.Send(target, b)
	h.env.record(trace.Event{Kind: trace.BaitRREQ1 + trace.Kind(c.stage-1), Node: h.NodeID(), Suspect: c.suspect, Peer: target, Dest: c.fakeDest, Seq: demandSeq})
	// Retried probes back off exponentially (capped at 4x) so a lossy channel
	// gets progressively longer reply windows.
	timeout := baitTimeout << uint(c.retries)
	if cap := 4 * baitTimeout; timeout > cap {
		timeout = cap
	}
	c.timer.Stop()
	c.timer = h.env.Sched.After(timeout, func() { h.probeTimeout(c) })
}

// handleProbeReply processes frames arriving at the disposable identity.
func (h *HeadAgent) handleProbeReply(c *detectionCase, f radio.Frame) {
	if h.cases[c.suspect] != c {
		return // case already resolved
	}
	pkt, err := wire.Decode(f.Payload)
	if err != nil {
		return
	}
	if sec, ok := pkt.(*wire.Secure); ok {
		inner, cert, err := pki.Open(sec, h.env.Trust, h.env.Sched.Now(), h.env.Scheme)
		if err == nil && cert.Node == c.suspect {
			// An authenticated reply pins the exact certificate to revoke.
			c.serial = cert.Serial
			c.expiry = cert.Expiry
		}
		if err != nil {
			h.stats.AuthFailures++
		}
		pkt = inner
		if pkt == nil {
			return
		}
	}
	rep, ok := pkt.(*wire.RREP)
	if !ok || rep.Dest != c.fakeDest {
		return
	}
	expected := c.suspect
	if c.stage == 3 {
		expected = c.teammate
	}
	if rep.Issuer != expected || f.From != expected {
		// A relayed or third-party reply is not the suspect's own claim.
		return
	}
	if c.stage == 2 && rep.DestSeq <= c.priorSeq {
		// A re-delivered copy of the stage-1 reply (fault injection can
		// duplicate frames), not an answer to the higher-sequence demand —
		// a genuine stage-2 claim must exceed the demanded sequence.
		return
	}
	h.env.record(trace.Event{Kind: trace.ProbeReply, Node: h.NodeID(), Suspect: c.suspect, Peer: expected})
	c.timer.Stop()

	switch c.stage {
	case 1:
		if h.cfg.SingleProbe {
			// Ablation: convict on the first forged reply alone. Cheaper,
			// but the next-hop inquiry never happens, so teammates escape.
			h.env.record(trace.Event{Kind: trace.SingleProbeConviction, Node: h.NodeID(), Suspect: c.suspect, Seq: rep.DestSeq})
			h.concludeMalicious(c, false)
			return
		}
		// Claiming a route to a destination that does not exist is already
		// the black hole signature; the second probe proves the sequence-
		// number violation and asks after accomplices.
		c.priorSeq = rep.DestSeq
		c.stage = 2
		h.afterStageDelay(c, func() {
			if !h.ensureStillMember(c) {
				return
			}
			h.sendProbe(c, c.priorSeq+1, true)
		})
	case 2:
		h.env.record(trace.Event{Kind: trace.Violation, Node: h.NodeID(), Suspect: c.suspect,
			Count: uint64(c.priorSeq + 1), Seq: rep.DestSeq, Peer: rep.NextHop})
		if rep.NextHop != 0 && rep.NextHop != c.suspect {
			c.teammate = rep.NextHop
			c.stage = 3
			h.afterStageDelay(c, func() { h.sendProbe(c, 0, true) })
			return
		}
		h.concludeMalicious(c, false)
	case 3:
		// The teammate endorsed a route to the nonexistent destination:
		// cooperative attack confirmed.
		h.concludeMalicious(c, true)
	}
}

func (h *HeadAgent) afterStageDelay(c *detectionCase, fn func()) {
	if h.cfg.StageDelay <= 0 {
		fn()
		return
	}
	c.timer.Stop()
	c.timer = h.env.Sched.After(h.cfg.StageDelay, fn)
}

// ensureStillMember checks the suspect has not left the cluster mid-case;
// if it has, the case is handed to the adjacent head with its probe state.
func (h *HeadAgent) ensureStillMember(c *detectionCase) bool {
	if h.memb.IsMember(c.suspect) {
		return true
	}
	h.env.record(trace.Event{Kind: trace.SuspectLeft, Node: h.NodeID(), Suspect: c.suspect})
	h.closeCase(c)
	// Every waiting reporter travels with the case; the receiving head's
	// verification table re-merges them, so nobody's verdict is lost in
	// the hand-off.
	reporters := c.reporter
	if len(reporters) == 0 {
		reporters = []reporterRef{{}}
	}
	for i, rep := range reporters {
		dr := &wire.DetectReq{
			Reporter:        rep.node,
			ReporterCluster: rep.cluster,
			Suspect:         c.suspect,
			SuspectSerial:   c.serial,
			FakeDest:        c.fakeDest,
			PriorSeq:        c.priorSeq,
			Forwards:        c.forwards,
		}
		if i == 0 {
			h.routeCaseElsewhere(c, dr)
			continue
		}
		// Follow-up reporters ride separate forwards that the next head
		// deduplicates into the same case.
		single := &detectionCase{
			suspect:  c.suspect,
			serial:   c.serial,
			reporter: []reporterRef{rep},
			fakeDest: c.fakeDest,
			priorSeq: c.priorSeq,
			forwards: c.forwards,
		}
		h.routeCaseElsewhere(single, dr)
	}
	return false
}

// probeTimeout fires when a probe went unanswered.
func (h *HeadAgent) probeTimeout(c *detectionCase) {
	if h.cases[c.suspect] != c {
		return
	}
	switch c.stage {
	case 1:
		if !h.ensureStillMember(c) {
			return
		}
		if c.retries < baitRetries {
			c.retries++
			h.sendProbe(c, 0, false)
			return
		}
		// The suspect never claimed the fake route: it behaved correctly
		// under examination.
		h.respond(c, wire.VerdictLegitimate)
	case 2:
		if !h.ensureStillMember(c) {
			return
		}
		// It already claimed a route to a nonexistent destination; silence
		// now does not undo that.
		h.concludeMalicious(c, false)
	case 3:
		// The teammate stayed silent: isolate the primary only.
		h.concludeMalicious(c, false)
	}
}

// concludeMalicious resolves the case, isolates the attacker(s), and
// reports to every waiting reporter.
func (h *HeadAgent) concludeMalicious(c *detectionCase, teammateConfirmed bool) {
	teammate := wire.NodeID(0)
	if teammateConfirmed {
		teammate = c.teammate
	}
	h.env.record(trace.Event{Kind: trace.CaseResolved, Node: h.NodeID(), Suspect: c.suspect, Verdict: wire.VerdictMalicious, Peer: teammate})
	h.isolate(c.suspect, c.serial, c.expiry, c.suspect)
	if teammateConfirmed {
		h.isolate(teammate, 0, 0, c.suspect)
	}
	h.respondVerdict(c, wire.VerdictMalicious, teammate)
	h.closeCase(c)
	delete(h.cases, c.suspect)
}

// respond resolves a case with a non-malicious verdict.
func (h *HeadAgent) respond(c *detectionCase, v wire.Verdict) {
	h.env.record(trace.Event{Kind: trace.CaseResolved, Node: h.NodeID(), Suspect: c.suspect, Verdict: v})
	h.respondVerdict(c, v, 0)
	h.closeCase(c)
	delete(h.cases, c.suspect)
}

// respondVerdict delivers the verdict to each reporter: directly over radio
// for local members, via the reporter's own head otherwise.
func (h *HeadAgent) respondVerdict(c *detectionCase, v wire.Verdict, teammate wire.NodeID) {
	// Remember which report nonces this verdict answers: if the verdict is
	// lost in flight, the reporter's retransmission (same nonce) is served
	// from this cache instead of a fresh examination.
	rc := h.resolved[c.suspect]
	if rc == nil {
		rc = &resolvedCase{nonces: make(map[uint64]bool)}
	}
	rc.verdict, rc.teammate = v, teammate
	for _, rep := range c.reporter {
		if rep.nonce != 0 {
			rc.nonces[rep.nonce] = true
		}
	}
	if len(rc.nonces) > 0 {
		h.resolved[c.suspect] = rc
	}
	for _, rep := range c.reporter {
		resp := &wire.DetectResp{Reporter: rep.node, Suspect: c.suspect, Verdict: v, Teammate: teammate}
		if rep.cluster == h.cluster || rep.cluster == 0 {
			h.deliverVerdict(resp, rep)
			continue
		}
		head, ok := h.env.Dir.HeadOf(rep.cluster)
		if !ok {
			continue
		}
		b, err := resp.MarshalBinary()
		if err != nil {
			panic("core: marshalling DetectResp: " + err.Error())
		}
		if err := h.ep.Send(head, b); err == nil {
			h.env.record(trace.Event{Kind: trace.VerdictRelayed, Node: h.NodeID(), Suspect: c.suspect, Peer: head})
		}
	}
}

// deliverVerdict seals and radios a verdict to a reporter in this cluster.
func (h *HeadAgent) deliverVerdict(resp *wire.DetectResp, rep reporterRef) {
	h.ifc.Send(resp.Reporter, h.seal(resp))
	h.env.record(trace.Event{Kind: trace.VerdictDelivered, Node: h.NodeID(), Suspect: resp.Suspect, Peer: resp.Reporter})
}

// isolate blacklists the attacker locally, warns adjacent heads, and files
// the certificate revocation with the TA.
func (h *HeadAgent) isolate(attacker wire.NodeID, serial uint64, expiry time.Duration, caseKey wire.NodeID) {
	h.stats.Revocations++
	if expiry == 0 {
		expiry = h.env.Sched.Now() + time.Hour
	}
	rc := wire.RevokedCert{Node: attacker, CertSerial: serial, Expiry: expiry}

	// Local blacklist + member broadcast.
	before := h.memb.Stats().BlacklistNotices
	h.addRevoked(rc)
	packets := h.memb.Stats().BlacklistNotices - before

	// Adjacent heads ("notifies adjacent clusters").
	notice := &wire.RevocationNotice{Authority: 0, Revoked: rc}
	nb, err := notice.MarshalBinary()
	if err != nil {
		panic("core: marshalling RevocationNotice: " + err.Error())
	}
	for _, c := range h.env.Highway.Neighbors(int(h.cluster)) {
		adj, ok := h.env.Dir.HeadOf(wire.ClusterID(c))
		if !ok {
			continue
		}
		if err := h.ep.Send(adj, nb); err == nil {
			packets++
		}
	}

	// Certificate revocation through the TA.
	revokeErr := errNoAuthority
	if ta, ok := h.env.Dir.AuthorityOf(h.cluster); ok {
		revokeErr = nil
		req := &wire.RevocationReq{Head: h.NodeID(), Suspect: attacker, CertSerial: serial, Cluster: h.cluster}
		rb, err := req.MarshalBinary()
		if err != nil {
			panic("core: marshalling RevocationReq: " + err.Error())
		}
		if err := h.ep.Send(ta, rb); err == nil {
			packets++
		}
	}
	h.env.record(trace.Event{Kind: trace.IsolationPackets, Node: h.NodeID(), Suspect: caseKey, Count: packets})
	h.env.record(trace.Event{Kind: trace.Isolated, Node: h.NodeID(), Suspect: attacker, Count: serial, Err: revokeErr})
}

// addRevoked blacklists a node in the membership plane and evicts it from
// the head's own forwarding tables.
func (h *HeadAgent) addRevoked(rc wire.RevokedCert) {
	h.memb.AddRevoked(rc)
	h.router.PurgeNode(rc.Node)
}

// closeCase releases the disposable identity and timers without resolving.
func (h *HeadAgent) closeCase(c *detectionCase) {
	c.timer.Stop()
	if c.disposable != nil {
		c.disposable.Detach()
		c.disposable = nil
	}
	if h.cases[c.suspect] == c {
		delete(h.cases, c.suspect)
	}
}
