package core

import (
	"crypto/ecdsa"
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

// VehicleConfig tunes a vehicle's BlackDP layer. Zero fields take defaults.
type VehicleConfig struct {
	// Verify enables BlackDP verification; false runs plain AODV (the
	// undefended baseline).
	Verify bool
	// ProbeTimeout is how long the vehicle waits for the destination's
	// answer to a route-verification Hello before suspecting the issuer.
	ProbeTimeout time.Duration
	// DetectTimeout is how long the vehicle waits for its cluster head's
	// verdict after filing a d_req.
	DetectTimeout time.Duration
	// DReqRetries is how many times an unanswered d_req is retransmitted
	// (same nonce, exponential backoff) before the vehicle gives up on its
	// head and fails over to an adjacent one. 0 means the default (1);
	// -1 disables both retransmission and failover — the ablation baseline,
	// matching the paper's fire-and-forget report.
	DReqRetries int
	// DReqTimeout is the initial retransmission timeout for an unanswered
	// d_req; each retry doubles it, capped at 4x. It must exceed the head's
	// worst-case fault-free verdict latency or healthy runs retransmit
	// spuriously.
	DReqTimeout time.Duration
	// ReportWithoutProbe is the DESIGN.md ablation of the paper's
	// verification step: report any intermediate route issuer immediately,
	// without the end-to-end Hello probe and the second discovery round.
	// Honest intermediates with cached routes then get reported too — the
	// cluster head still clears them (no false positives), but every such
	// report burns a full examination. Off by default.
	ReportWithoutProbe bool
	// Router configures the AODV instance.
	Router aodv.Config
}

func (c VehicleConfig) withDefaults() VehicleConfig {
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 1500 * time.Millisecond
	}
	if c.DetectTimeout == 0 {
		c.DetectTimeout = 10 * time.Second
	}
	if c.DReqRetries == 0 {
		c.DReqRetries = 1
	}
	if c.DReqTimeout == 0 {
		// Above the ~5s worst-case fault-free verdict latency (a cooperative
		// case whose suspect moved to a remote cluster: two hand-offs, three
		// probe stages), so healthy runs never retransmit.
		c.DReqTimeout = 8 * time.Second
	}
	return c
}

// EstablishStatus is the outcome class of a route establishment.
type EstablishStatus int

// Establishment outcomes.
const (
	// StatusVerified: an authenticated route to the destination is
	// installed (directly from the destination, or probe-confirmed through
	// an honest intermediate).
	StatusVerified EstablishStatus = iota + 1
	// StatusNoRoute: discovery produced no usable authenticated candidate.
	StatusNoRoute
	// StatusPrevented: a suspicious issuer stopped answering once probed;
	// the attack was blocked but the attacker could not be convicted (the
	// paper's "can only prevent the black hole establishment").
	StatusPrevented
	// StatusDetected: the cluster head confirmed the issuer malicious and
	// isolated it.
	StatusDetected
	// StatusCleared: the cluster head found the reported issuer legitimate.
	StatusCleared
	// StatusUnresolved: a report was filed but no conviction resulted (the
	// suspect was unreachable, or the verdict timed out) — the paper's
	// false-negative bucket.
	StatusUnresolved
	// StatusUnverified: plain-AODV mode installed the freshest route with
	// no checks at all.
	StatusUnverified
)

func (s EstablishStatus) String() string {
	switch s {
	case StatusVerified:
		return "verified"
	case StatusNoRoute:
		return "no-route"
	case StatusPrevented:
		return "prevented"
	case StatusDetected:
		return "detected"
	case StatusCleared:
		return "cleared"
	case StatusUnresolved:
		return "unresolved"
	case StatusUnverified:
		return "unverified"
	default:
		return fmt.Sprintf("EstablishStatus(%d)", int(s))
	}
}

// EstablishResult reports how a route establishment ended.
type EstablishResult struct {
	Status   EstablishStatus
	Dest     wire.NodeID
	Via      wire.NodeID // issuer of the accepted route reply, if any
	Suspect  wire.NodeID // issuer reported to the head, if any
	Verdict  wire.Verdict
	Teammate wire.NodeID
	Rounds   int // discovery rounds used
}

// VehicleStats counts verification-layer activity.
type VehicleStats struct {
	Discoveries     uint64
	AuthViolations  uint64 // replies discarded for failed authentication
	BlacklistHits   uint64 // replies discarded because the issuer is blacklisted
	ProbesSent      uint64
	ProbeConfirmed  uint64
	AnonymityFakes  uint64 // forged probe replies recognised
	ReportsFiled    uint64
	VerdictsGot     uint64
	RenewalsApplied uint64
	DataSent        uint64
	DataReceived    uint64
	DReqRetransmits uint64 // d_req resends after verdict timeouts
	Failovers       uint64 // head-failover attempts after exhausted retries
}

// verification is the in-flight state of one EstablishRoute call.
type verification struct {
	dest     wire.NodeID
	done     func(EstablishResult)
	round    int
	excluded map[wire.NodeID]bool
	suspect  *aodv.Candidate
	nonce    uint64
	timer    sim.Timer
	minSeq   wire.SeqNum

	// d_req retransmission state, live once fileReport runs.
	dreq       *wire.DetectReq // the filed report; Nonce stays fixed across resends
	attempts   int             // sends so far in the current head registration
	retryTimer sim.Timer
	failedOver bool // already rejoined once over this report
}

// VehicleAgent is one legitimate vehicle: mobility, radio, AODV, cluster
// membership, and the BlackDP verification layer.
type VehicleAgent struct {
	env  Env
	cfg  VehicleConfig
	cred *pki.Credential

	mobile *mobility.Mobile
	ifc    *radio.Interface
	router *aodv.Router
	client *cluster.Client

	verifier    *pki.Verifier  // per-vehicle verification cache
	openScratch []*wire.Secure // batch-verify staging, reused per discovery

	verifications map[wire.NodeID]*verification // by destination
	reports       map[wire.NodeID]*verification // by suspect
	pendingRenew  *ecdsa.PrivateKey             // key waiting for its certificate
	onRenewed     func(old, new wire.NodeID)
	stats         VehicleStats
}

// NewVehicleAgent creates a vehicle with the given credential and
// trajectory. The returned agent still needs Start.
func NewVehicleAgent(env Env, cfg VehicleConfig, cred *pki.Credential, mobile *mobility.Mobile) (*VehicleAgent, error) {
	env.check()
	if cred == nil || mobile == nil {
		return nil, fmt.Errorf("core: vehicle requires a credential and a trajectory")
	}
	v := &VehicleAgent{
		env:           env,
		cfg:           cfg.withDefaults(),
		cred:          cred,
		mobile:        mobile,
		verifier:      env.NewVerifier(),
		verifications: make(map[wire.NodeID]*verification),
		reports:       make(map[wire.NodeID]*verification),
	}
	v.ifc = env.AttachRadio(cred.NodeID(), mobile, v.HandleFrame)
	v.router = aodv.New(v.cfg.Router, env.Sched, env.RNG.Split("router-"+cred.NodeID().String()), v.ifc,
		v.sealPacket, aodv.Callbacks{
			HelloProbe: v.handleProbe,
			Cluster:    func() wire.ClusterID { return v.client.Cluster() },
			AcceptReply: func(rep *wire.RREP, from wire.NodeID) bool {
				return !v.client.IsBlacklisted(rep.Issuer) && !v.client.IsBlacklisted(from)
			},
		})
	v.client = cluster.NewClient(env.Sched, env.Highway, mobile, env.Medium.Range(),
		func(to wire.NodeID, payload []byte) { v.ifc.Send(to, payload) }, v.ifc.NodeID,
		cluster.ClientCallbacks{
			Joined: func(wire.ClusterID, wire.NodeID) { v.refileReports() },
			BlacklistUpdated: func(added []wire.RevokedCert) {
				// Blacklisted nodes must carry no more of our traffic.
				for _, rc := range added {
					v.router.PurgeNode(rc.Node)
				}
			},
		})
	return v, nil
}

// Start begins AODV and cluster registration.
func (v *VehicleAgent) Start() {
	v.router.Start()
	v.client.Start()
}

// NodeID returns the vehicle's current pseudonym.
func (v *VehicleAgent) NodeID() wire.NodeID { return v.ifc.NodeID() }

// Credential returns the current credential.
func (v *VehicleAgent) Credential() *pki.Credential { return v.cred }

// Mobile returns the trajectory.
func (v *VehicleAgent) Mobile() *mobility.Mobile { return v.mobile }

// Router exposes the AODV instance.
func (v *VehicleAgent) Router() *aodv.Router { return v.router }

// Client exposes the membership client.
func (v *VehicleAgent) Client() *cluster.Client { return v.client }

// Interface exposes the radio endpoint (the attack layer rewires its
// receive path).
func (v *VehicleAgent) Interface() *radio.Interface { return v.ifc }

// Stats returns a snapshot of verification counters.
func (v *VehicleAgent) Stats() VehicleStats { return v.stats }

// OnRenewed registers a hook invoked after a pseudonym change.
func (v *VehicleAgent) OnRenewed(fn func(old, new wire.NodeID)) { v.onRenewed = fn }

// sealPacket signs route replies this vehicle originates, per the paper's
// secure-packet requirement for destinations and intermediates.
func (v *VehicleAgent) sealPacket(p wire.Packet) ([]byte, error) {
	if _, ok := p.(*wire.RREP); ok {
		sec, err := pki.Seal(p, v.cred, v.env.Scheme)
		if err != nil {
			return nil, err
		}
		return sec.MarshalBinary()
	}
	return p.MarshalBinary()
}

func (v *VehicleAgent) seal(p wire.Packet) []byte {
	sec, err := pki.Seal(p, v.cred, v.env.Scheme)
	if err != nil {
		panic("core: sealing vehicle packet: " + err.Error())
	}
	b, err := sec.MarshalBinary()
	if err != nil {
		panic("core: marshalling vehicle packet: " + err.Error())
	}
	return b
}

// HandleFrame is the radio receive entry point (the attack layer wraps it
// for hostile vehicles).
func (v *VehicleAgent) HandleFrame(f radio.Frame) {
	switch f.Kind() {
	case wire.KindRREQ, wire.KindRREP, wire.KindRERR, wire.KindHello, wire.KindData:
		// Bare routing traffic is the bulk of what a vehicle hears; the
		// kind peek hands it straight to the router without a wasted decode
		// (the router runs its own typed fast paths).
		v.router.HandleFrame(f)
		return
	}
	pkt, err := wire.Decode(f.Payload)
	if err != nil {
		return
	}
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
	case *wire.JoinRep, *wire.BlacklistNotice:
		v.client.HandlePacket(inner, f.From)
	case *wire.DetectResp:
		v.handleDetectResp(p, env)
	case *wire.RenewalResp:
		v.handleRenewalResp(p, env)
	default:
		v.router.HandleFrame(f)
	}
}

// SendData routes an application payload over the established route.
func (v *VehicleAgent) SendData(dest wire.NodeID, payload []byte) error {
	if err := v.router.SendData(dest, payload); err != nil {
		return err
	}
	v.stats.DataSent++
	return nil
}

// OnDataReceived registers the application delivery callback.
func (v *VehicleAgent) OnDataReceived(fn func(d *wire.Data, from wire.NodeID)) {
	v.router.SetDataReceived(func(d *wire.Data, from wire.NodeID) {
		v.stats.DataReceived++
		if fn != nil {
			fn(d, from)
		}
	})
}

// EstablishRoute performs the paper's source-and-destination-verified route
// establishment toward dest and reports the outcome through done.
func (v *VehicleAgent) EstablishRoute(dest wire.NodeID, done func(EstablishResult)) error {
	if done == nil {
		return fmt.Errorf("core: EstablishRoute requires a completion callback")
	}
	if _, busy := v.verifications[dest]; busy {
		return fmt.Errorf("core: establishment to %v already in progress", dest)
	}
	ver := &verification{dest: dest, done: done, excluded: make(map[wire.NodeID]bool)}
	v.verifications[dest] = ver
	return v.discoverRound(ver)
}

func (v *VehicleAgent) discoverRound(ver *verification) error {
	ver.round++
	v.stats.Discoveries++
	opts := []aodv.DiscoverOption{}
	if ver.minSeq > 0 {
		opts = append(opts, aodv.WithMinDestSeq(ver.minSeq))
	}
	return v.router.Discover(ver.dest, func(res aodv.DiscoverResult) { v.evaluate(ver, res) }, opts...)
}

func (v *VehicleAgent) finish(ver *verification, res EstablishResult) {
	ver.timer.Stop()
	ver.retryTimer.Stop()
	if v.verifications[ver.dest] == ver {
		delete(v.verifications, ver.dest)
	}
	res.Dest = ver.dest
	res.Rounds = ver.round
	v.env.Tracer.Logf(v.NodeID(), trace.CatVerify, "establishment to %v: %v (suspect %v verdict %v)",
		ver.dest, res.Status, res.Suspect, res.Verdict)
	ver.done(res)
}

// evaluate inspects the replies a discovery round collected.
func (v *VehicleAgent) evaluate(ver *verification, res aodv.DiscoverResult) {
	if v.verifications[ver.dest] != ver {
		return
	}
	if !v.cfg.Verify {
		// Plain AODV: trust the freshest reply blindly.
		if res.Best == nil {
			v.finish(ver, EstablishResult{Status: StatusNoRoute})
			return
		}
		v.finish(ver, EstablishResult{Status: StatusUnverified, Via: res.Best.RREP.Issuer})
		return
	}

	best := v.bestAuthenticated(ver, res.Candidates)
	if best == nil {
		if ver.suspect != nil {
			// Round 2 after a failed probe: the suspicious issuer declined
			// to re-offer its route. Attack blocked, attacker uncharged.
			v.finish(ver, EstablishResult{Status: StatusPrevented, Suspect: ver.suspect.RREP.Issuer})
			return
		}
		v.finish(ver, EstablishResult{Status: StatusNoRoute})
		return
	}
	// Forwarding must follow the candidate verification is acting on, not
	// whatever unauthenticated reply raced to the top of the route table.
	v.router.AdoptRoute(ver.dest, best.From, best.RREP.HopCount+1, best.RREP.DestSeq)
	if best.RREP.Issuer == ver.dest {
		// The destination answered and authenticated itself directly.
		v.finish(ver, EstablishResult{Status: StatusVerified, Via: best.RREP.Issuer})
		return
	}
	if ver.suspect != nil && best.RREP.Issuer == ver.suspect.RREP.Issuer {
		// Second round, same issuer, still claiming the freshest route it
		// cannot prove: report it.
		v.fileReport(ver, best)
		return
	}
	if v.cfg.ReportWithoutProbe {
		// Ablation: treat every intermediate issuer as suspicious outright.
		v.fileReport(ver, best)
		return
	}
	// An intermediate claims a route; verify end to end with a signed Hello.
	ver.suspect = best
	v.sendVerificationProbe(ver)
}

// bestAuthenticated filters candidates through the paper's authentication
// rules and returns the freshest survivor.
func (v *VehicleAgent) bestAuthenticated(ver *verification, cands []aodv.Candidate) *aodv.Candidate {
	// Stage the envelopes that survive the cheap pre-filters and verify
	// them as one batch through the per-vehicle cache; relayed copies of
	// the same reply then cost one signature verification, not one each.
	v.openScratch = v.openScratch[:0]
	for i := range cands {
		c := &cands[i]
		if ver.excluded[c.RREP.Issuer] || v.client.IsBlacklisted(c.RREP.Issuer) {
			v.openScratch = append(v.openScratch, nil)
			continue
		}
		v.openScratch = append(v.openScratch, c.Envelope)
	}
	opened := v.verifier.OpenBatch(v.openScratch, v.env.Sched.Now())
	var best *aodv.Candidate
	for i := range cands {
		c := &cands[i]
		if ver.excluded[c.RREP.Issuer] {
			continue
		}
		if v.client.IsBlacklisted(c.RREP.Issuer) {
			v.stats.BlacklistHits++
			continue
		}
		if c.Envelope == nil {
			// Unsigned replies cannot authenticate their issuer; BlackDP
			// discards them outright.
			v.stats.AuthViolations++
			continue
		}
		inner, cert, err := opened[i].Packet, opened[i].Cert, opened[i].Err
		if err != nil {
			v.stats.AuthViolations++
			continue
		}
		rep, ok := inner.(*wire.RREP)
		if !ok || cert.Node != rep.Issuer {
			// A reply signed under a different identity than it claims is
			// an impersonation attempt.
			v.stats.AuthViolations++
			continue
		}
		if v.client.IsBlacklisted(cert.Node) {
			v.stats.BlacklistHits++
			continue
		}
		if best == nil || rep.DestSeq > best.RREP.DestSeq ||
			(rep.DestSeq == best.RREP.DestSeq && rep.HopCount < best.RREP.HopCount) {
			best = c
		}
	}
	return best
}

// sendVerificationProbe sends the signed end-to-end Hello through the
// claimed route and arms the timeout that triggers re-discovery.
func (v *VehicleAgent) sendVerificationProbe(ver *verification) {
	ver.nonce = v.env.RNG.Uint64()
	probe := &wire.Hello{Origin: v.NodeID(), Dest: ver.dest, Nonce: ver.nonce}
	if err := v.router.SendProbe(ver.dest, v.seal(probe)); err != nil {
		v.finish(ver, EstablishResult{Status: StatusNoRoute, Suspect: ver.suspect.RREP.Issuer})
		return
	}
	v.stats.ProbesSent++
	v.env.Tracer.Logf(v.NodeID(), trace.CatVerify, "probing route to %v via %v (nonce %d)",
		ver.dest, ver.suspect.RREP.Issuer, ver.nonce)
	ver.timer.Stop()
	ver.timer = v.env.Sched.After(v.cfg.ProbeTimeout, func() { v.probeTimedOut(ver) })
}

// probeTimedOut: no destination answer; redo discovery demanding a fresher
// sequence number than the suspicious claim, per the paper.
func (v *VehicleAgent) probeTimedOut(ver *verification) {
	if v.verifications[ver.dest] != ver {
		return
	}
	if ver.round >= 2 {
		// Two rounds of suspicion without a reply to convict on: report
		// anyway? The paper files after the second suspicious reply; with
		// none, the establishment simply failed safe.
		v.finish(ver, EstablishResult{Status: StatusPrevented, Suspect: ver.suspect.RREP.Issuer})
		return
	}
	v.env.Tracer.Logf(v.NodeID(), trace.CatVerify, "probe to %v unanswered; re-discovering", ver.dest)
	ver.minSeq = ver.suspect.RREP.DestSeq + 1
	if err := v.discoverRound(ver); err != nil {
		v.finish(ver, EstablishResult{Status: StatusPrevented, Suspect: ver.suspect.RREP.Issuer})
	}
}

// handleProbe serves both directions of the Hello probe protocol.
func (v *VehicleAgent) handleProbe(h *wire.Hello, env *wire.Secure, from wire.NodeID) {
	now := v.env.Sched.Now()
	if !h.Reply {
		// We are the probed destination: authenticate the prober, then
		// answer with our own signed Hello.
		if env != nil {
			if _, cert, err := v.verifier.Open(env, now); err != nil || cert.Node != h.Origin {
				v.stats.AuthViolations++
				return
			}
		}
		reply := &wire.Hello{Origin: v.NodeID(), Dest: h.Origin, Nonce: h.Nonce, Reply: true}
		if err := v.router.SendProbe(h.Origin, v.seal(reply)); err != nil {
			v.env.Tracer.Logf(v.NodeID(), trace.CatVerify, "cannot answer probe from %v: %v", h.Origin, err)
		}
		return
	}
	// A probe reply: find the verification waiting on this nonce.
	for _, ver := range v.verifications {
		if ver.nonce == 0 || ver.nonce != h.Nonce {
			continue
		}
		v.resolveProbeReply(ver, h, env)
		return
	}
}

// resolveProbeReply authenticates the destination's answer — or recognises
// a forged one, which is itself damning evidence.
func (v *VehicleAgent) resolveProbeReply(ver *verification, h *wire.Hello, env *wire.Secure) {
	now := v.env.Sched.Now()
	if env != nil {
		if _, cert, err := v.verifier.Open(env, now); err == nil && cert.Node == ver.dest && h.Origin == ver.dest {
			// Genuine destination: the intermediate's route is real.
			v.stats.ProbeConfirmed++
			v.finish(ver, EstablishResult{Status: StatusVerified, Via: ver.suspect.RREP.Issuer})
			return
		}
	}
	// Anonymity response: someone (not the destination) answered the probe.
	// The paper files the d_req immediately, skipping the second round.
	v.stats.AnonymityFakes++
	v.env.Tracer.Logf(v.NodeID(), trace.CatVerify, "forged probe reply for %v; reporting %v",
		ver.dest, ver.suspect.RREP.Issuer)
	v.fileReport(ver, ver.suspect)
}

// fileReport sends the d_req for the suspicious issuer to the vehicle's
// cluster head and waits for the verdict.
func (v *VehicleAgent) fileReport(ver *verification, suspect *aodv.Candidate) {
	ver.timer.Stop()
	head := v.client.Head()
	if head == wire.Broadcast {
		v.finish(ver, EstablishResult{Status: StatusUnresolved, Suspect: suspect.RREP.Issuer})
		return
	}
	var serial uint64
	if suspect.Envelope != nil {
		serial = suspect.Envelope.Cert.Serial
	}
	dr := &wire.DetectReq{
		Reporter:        v.NodeID(),
		ReporterCluster: v.client.Cluster(),
		Suspect:         suspect.RREP.Issuer,
		SuspectCluster:  suspect.RREP.IssuerCluster,
		SuspectSerial:   serial,
		Nonce:           v.env.RNG.Uint64(),
	}
	v.stats.ReportsFiled++
	ver.suspect = suspect
	ver.dreq = dr
	v.reports[dr.Suspect] = ver
	v.sendDReq(ver)
	window := v.cfg.DetectTimeout
	if v.cfg.DReqRetries >= 0 {
		// The retry ladder (timeout, 2x, capped) must fit inside the verdict
		// window or retransmission and failover could never trigger.
		window = 4 * v.cfg.DetectTimeout
	}
	ver.timer = v.env.Sched.After(window, func() { v.reportTimedOut(ver) })
}

// reportTimedOut gives up on a filed report: no verdict arrived within the
// detection window (including any retransmissions and failover).
func (v *VehicleAgent) reportTimedOut(ver *verification) {
	if v.reports[ver.dreq.Suspect] != ver {
		return
	}
	delete(v.reports, ver.dreq.Suspect)
	v.finish(ver, EstablishResult{Status: StatusUnresolved, Suspect: ver.dreq.Suspect})
}

// sendDReq transmits the report to the current head and, when retransmission
// is enabled, arms the retry timer with capped exponential backoff. The nonce
// stays fixed across resends so the head can tell a lost-verdict
// retransmission from a fresh report.
func (v *VehicleAgent) sendDReq(ver *verification) {
	dr := ver.dreq
	head := v.client.Head()
	if head == wire.Broadcast {
		return // failover join still in progress; refileReports resumes
	}
	dr.ReporterCluster = v.client.Cluster()
	v.ifc.Send(head, v.seal(dr))
	ver.attempts++
	v.env.Tally.Case(dr.Suspect).addDReq(v.env.Sched.Now())
	v.env.Tracer.Logf(v.NodeID(), trace.CatDetect, "d_req filed against %v (cluster %d, attempt %d)",
		dr.Suspect, dr.SuspectCluster, ver.attempts)
	if v.cfg.DReqRetries < 0 {
		return // ablation: fire and forget, as in the base paper
	}
	backoff := v.cfg.DReqTimeout << uint(ver.attempts-1)
	if cap := 4 * v.cfg.DReqTimeout; backoff > cap {
		backoff = cap
	}
	ver.retryTimer.Stop()
	ver.retryTimer = v.env.Sched.After(backoff, func() { v.dreqTimedOut(ver) })
}

// dreqTimedOut retransmits an unanswered d_req, or — once the per-head retry
// budget is exhausted — abandons the registered head and solicits an adjacent
// one via the membership failover path.
func (v *VehicleAgent) dreqTimedOut(ver *verification) {
	if v.reports[ver.dreq.Suspect] != ver {
		return
	}
	if ver.attempts <= v.cfg.DReqRetries {
		v.stats.DReqRetransmits++
		v.env.Tracer.Logf(v.NodeID(), trace.CatDetect, "d_req against %v unanswered; retransmitting", ver.dreq.Suspect)
		v.sendDReq(ver)
		return
	}
	if ver.failedOver {
		return // one failover per report; reportTimedOut decides from here
	}
	ver.failedOver = true
	v.stats.Failovers++
	v.env.Tracer.Logf(v.NodeID(), trace.CatDetect, "head unresponsive; failing over to an adjacent cluster head")
	// Reaching an adjacent head's radio range can take tens of seconds of
	// driving; stretch the verdict deadline to give the failover a chance.
	ver.timer.Stop()
	ver.timer = v.env.Sched.After(3*v.cfg.DetectTimeout, func() { v.reportTimedOut(ver) })
	v.client.Rejoin()
}

// refileReports retransmits failed-over reports to the freshly joined head.
// The membership Joined callback runs it on every admission; with no pending
// failover it does nothing, keeping the fault-free path untouched.
func (v *VehicleAgent) refileReports() {
	var suspects []wire.NodeID
	for s, ver := range v.reports {
		if ver.failedOver {
			suspects = append(suspects, s)
		}
	}
	sort.Slice(suspects, func(i, j int) bool { return suspects[i] < suspects[j] })
	for _, s := range suspects {
		ver := v.reports[s]
		ver.attempts = 0 // fresh retry budget at the new head
		v.sendDReq(ver)
		ver.timer.Stop()
		ver.timer = v.env.Sched.After(2*v.cfg.DetectTimeout, func() { v.reportTimedOut(ver) })
	}
}

// ReportSuspect files a d_req directly, outside any route establishment —
// the "suspicious route establishment activities" trigger. The experiment
// harness uses it to reproduce detection-packet counts for scripted
// scenarios (including reports against legitimate nodes).
func (v *VehicleAgent) ReportSuspect(suspect wire.NodeID, suspectCluster wire.ClusterID, serial uint64, done func(EstablishResult)) error {
	if done == nil {
		return fmt.Errorf("core: ReportSuspect requires a completion callback")
	}
	if _, busy := v.reports[suspect]; busy {
		return fmt.Errorf("core: report against %v already pending", suspect)
	}
	ver := &verification{dest: suspect, done: done, excluded: make(map[wire.NodeID]bool)}
	cand := &aodv.Candidate{RREP: wire.RREP{Issuer: suspect, IssuerCluster: suspectCluster}}
	if serial != 0 {
		cand.Envelope = &wire.Secure{Cert: wire.Certificate{Serial: serial, Node: suspect}}
	}
	v.fileReport(ver, cand)
	return nil
}

// handleDetectResp resolves a filed report with the head's verdict.
func (v *VehicleAgent) handleDetectResp(p *wire.DetectResp, env *wire.Secure) {
	if p.Reporter != v.NodeID() {
		return
	}
	if env == nil {
		v.stats.AuthViolations++
		return
	}
	if _, cert, err := v.verifier.Open(env, v.env.Sched.Now()); err != nil || !v.env.Dir.IsHead(cert.Node) {
		v.stats.AuthViolations++
		return
	}
	ver, ok := v.reports[p.Suspect]
	if !ok {
		return
	}
	delete(v.reports, p.Suspect)
	v.stats.VerdictsGot++

	res := EstablishResult{Suspect: p.Suspect, Verdict: p.Verdict, Teammate: p.Teammate}
	switch p.Verdict {
	case wire.VerdictMalicious, wire.VerdictAlreadyKnown:
		res.Status = StatusDetected
		v.router.PurgeNode(p.Suspect)
		if p.Teammate != 0 {
			v.router.PurgeNode(p.Teammate)
		}
	case wire.VerdictLegitimate:
		res.Status = StatusCleared
	default:
		res.Status = StatusUnresolved
	}
	v.finish(ver, res)
}

// RenewCertificate asks the TA (via the cluster head) for a fresh pseudonym,
// generating the next key pair locally.
func (v *VehicleAgent) RenewCertificate() error {
	head := v.client.Head()
	if head == wire.Broadcast {
		return fmt.Errorf("core: not registered in any cluster")
	}
	if v.pendingRenew != nil {
		return fmt.Errorf("core: renewal already pending")
	}
	// A derived stream keeps the variable byte consumption of key
	// generation from shifting shared-stream draws (run determinism).
	key, err := pki.GenerateKey(v.env.RNG.Split("renew-" + v.NodeID().String()).Reader())
	if err != nil {
		return err
	}
	der, err := pki.MarshalPublicKey(&key.PublicKey)
	if err != nil {
		return err
	}
	req := &wire.RenewalReq{Current: v.NodeID(), CertSerial: v.cred.Serial(), NewPubKey: der}
	v.pendingRenew = key
	v.ifc.Send(head, v.seal(req))
	return nil
}

// handleRenewalResp applies the freshly issued certificate: new pseudonym on
// the radio, re-registration with the cluster.
func (v *VehicleAgent) handleRenewalResp(p *wire.RenewalResp, env *wire.Secure) {
	if p.Requester != v.NodeID() || v.pendingRenew == nil {
		return
	}
	if env == nil {
		v.stats.AuthViolations++
		return
	}
	if _, cert, err := v.verifier.Open(env, v.env.Sched.Now()); err != nil || !v.env.Dir.IsHead(cert.Node) {
		v.stats.AuthViolations++
		return
	}
	pending := v.pendingRenew
	v.pendingRenew = nil
	if p.Denied {
		v.env.Tracer.Logf(v.NodeID(), trace.CatCluster, "certificate renewal denied")
		return
	}
	if err := pki.VerifyCertificate(&p.Cert, v.env.Trust, v.env.Sched.Now(), v.env.Scheme); err != nil {
		v.stats.AuthViolations++
		return
	}
	old := v.NodeID()
	v.cred = pki.NewCredential(p.Cert, pending)
	v.ifc.SetNodeID(p.Cert.Node)
	v.stats.RenewalsApplied++
	v.env.Tracer.Logf(v.NodeID(), trace.CatCluster, "pseudonym rotated %v -> %v", old, p.Cert.Node)
	// Re-register under the new identity; the old registration ages out.
	v.client.Start()
	if v.onRenewed != nil {
		v.onRenewed(old, p.Cert.Node)
	}
}
