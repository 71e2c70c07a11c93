package core

import (
	"slices"
	"testing"
	"time"

	"blackdp/internal/attack"
	"blackdp/internal/cluster"
	"blackdp/internal/mobility"
	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/trace"
	"blackdp/internal/wire"
)

// world is a complete simulated highway: one TA, a head per cluster, and
// whatever vehicles a test adds.
type world struct {
	t       *testing.T
	env     Env
	sched   *sim.Scheduler
	highway *mobility.Highway
	ta      *AuthorityAgent
	heads   map[wire.ClusterID]*HeadAgent
	seq     int
}

func newWorld(t *testing.T, seed int64) *world {
	return newWorldWithHeads(t, seed, HeadConfig{})
}

func newWorldWithHeads(t *testing.T, seed int64, headCfg HeadConfig) *world {
	t.Helper()
	highway, err := mobility.NewHighway(10_000, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	rng.Split("crypto") // spent: signatures draw nothing, but the radio split follows it
	env := Env{
		Sched:    sched,
		RNG:      rng,
		Trust:    pki.NewTrustStore(),
		Scheme:   pki.ECDSA{},
		Dir:      cluster.NewDirectory(),
		Highway:  highway,
		Medium:   radio.NewMedium(sched, rng.Split("radio")),
		Backbone: radio.NewBackbone(sched, time.Millisecond),
		Tracer:   trace.NewRecorder(),
		Tally:    NewTally(),
	}
	w := &world{t: t, env: env, sched: sched, highway: highway, heads: make(map[wire.ClusterID]*HeadAgent)}

	served := make([]wire.ClusterID, highway.Clusters())
	for i := range served {
		served[i] = wire.ClusterID(i + 1)
	}
	ta, err := NewAuthorityAgent(env, 1, 1, served, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w.ta = ta

	for c := wire.ClusterID(1); int(c) <= highway.Clusters(); c++ {
		cred, err := ta.IssueHeadCredential(c)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHeadAgent(env, headCfg, cred, c)
		if err != nil {
			t.Fatal(err)
		}
		h.Start()
		w.heads[c] = h
	}
	return w
}

// addVehicle creates and starts a legitimate vehicle.
func (w *world) addVehicle(x, speedMS float64, dir mobility.Direction, cfg VehicleConfig) *VehicleAgent {
	w.t.Helper()
	w.seq++
	cred, err := w.ta.IssueVehicleCredential(lineage(w.seq))
	if err != nil {
		w.t.Fatal(err)
	}
	mob, err := mobility.NewMobileOnRoad(w.highway, w.highway.Roads()[0], mobility.Position{X: x, Y: 100}, dir, speedMS, w.sched.Now())
	if err != nil {
		w.t.Fatal(err)
	}
	cfg.Verify = true
	v, err := NewVehicleAgent(w.env, cfg, cred, mob)
	if err != nil {
		w.t.Fatal(err)
	}
	v.Start()
	return v
}

func lineage(n int) string { return "veh-" + string(rune('a'+n%26)) + string(rune('0'+n/26)) }

// addBlackhole creates a black hole vehicle: a full vehicle agent with the
// hostile interceptor wired in front of its radio.
func (w *world) addBlackhole(x, speedMS float64, dir mobility.Direction, profile attack.Profile) (*VehicleAgent, *attack.Blackhole) {
	w.t.Helper()
	v := w.addVehicle(x, speedMS, dir, VehicleConfig{})
	bh := attack.NewBlackhole(profile, attack.Env{
		Sched:   w.sched,
		RNG:     w.env.RNG.Split("attacker"),
		Send:    v.Interface().Send,
		Self:    v.Interface().NodeID,
		Cluster: v.Client().Cluster,
		Seal: func(p wire.Packet) ([]byte, error) {
			sec, err := pki.Seal(p, v.Credential(), w.env.Scheme)
			if err != nil {
				return nil, err
			}
			return sec.MarshalBinary()
		},
		Inner: v.HandleFrame,
		Flee:  func() { v.Mobile().Exit(w.sched.Now()) },
		Renew: func() { _ = v.RenewCertificate() },
	})
	v.Interface().SetReceiver(bh.HandleFrame)
	return v, bh
}

// establish runs a verified route establishment to completion.
func (w *world) establish(src *VehicleAgent, dest wire.NodeID, within time.Duration) EstablishResult {
	w.t.Helper()
	var got *EstablishResult
	if err := src.EstablishRoute(dest, func(r EstablishResult) { got = &r }); err != nil {
		w.t.Fatalf("EstablishRoute: %v", err)
	}
	w.runUntil(within, func() bool { return got != nil })
	if got == nil {
		w.t.Fatal("establishment never completed")
	}
	return *got
}

// runUntil steps the simulation until cond holds or the time budget is
// spent, stopping promptly so later assertions see fresh protocol state.
func (w *world) runUntil(within time.Duration, cond func() bool) {
	deadline := w.sched.Now() + within
	for !cond() && w.sched.Now() < deadline && w.sched.Pending() > 0 {
		w.sched.Step()
	}
}

// legitChain adds relay vehicles so src (x=300, cluster 1) can reach a
// destination placed at destX through honest hops 900 m apart.
func (w *world) legitChain(xs ...float64) []*VehicleAgent {
	out := make([]*VehicleAgent, 0, len(xs))
	for _, x := range xs {
		out = append(out, w.addVehicle(x, 15, mobility.Eastbound, VehicleConfig{}))
	}
	return out
}

func TestVerifiedRouteToHonestDestination(t *testing.T) {
	w := newWorld(t, 1)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	chain := w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	_ = chain
	w.sched.RunFor(time.Second) // joins settle

	res := w.establish(src, dest.NodeID(), 15*time.Second)
	if res.Status != StatusVerified {
		t.Fatalf("status = %v, want verified", res.Status)
	}
	// Data flows end to end.
	var delivered int
	dest.OnDataReceived(func(d *wire.Data, from wire.NodeID) { delivered++ })
	for i := 0; i < 5; i++ {
		if err := src.SendData(dest.NodeID(), []byte("hi")); err != nil {
			t.Fatalf("SendData: %v", err)
		}
	}
	w.sched.RunFor(2 * time.Second)
	if delivered != 5 {
		t.Errorf("delivered %d/5 data packets", delivered)
	}
}

func TestSingleBlackHoleDetectedAndIsolated(t *testing.T) {
	w := newWorld(t, 2)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	attacker, bh := w.addBlackhole(800, 15, mobility.Eastbound, attack.DefaultProfile())
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 30*time.Second)
	if res.Status != StatusDetected {
		t.Fatalf("status = %v (suspect %v verdict %v), want detected", res.Status, res.Suspect, res.Verdict)
	}
	if res.Suspect != attacker.NodeID() {
		t.Errorf("suspect = %v, want attacker %v", res.Suspect, attacker.NodeID())
	}
	if res.Verdict != wire.VerdictMalicious {
		t.Errorf("verdict = %v, want malicious", res.Verdict)
	}
	if bh.Stats().RepliesForged == 0 {
		t.Error("attacker never forged a reply; scenario broken")
	}

	// Isolation artefacts: blacklisted at its head, revoked at the TA,
	// renewal paused.
	h := w.heads[1]
	if !h.Membership().IsBlacklisted(attacker.NodeID()) {
		t.Error("attacker not blacklisted at its cluster head")
	}
	if w.ta.Stats().Revocations != 1 {
		t.Errorf("TA revocations = %d, want 1", w.ta.Stats().Revocations)
	}
	if !w.ta.Authority().IsRevoked(attacker.Credential().Serial()) {
		t.Error("attacker's certificate not revoked")
	}

	// Figure 5 accounting: same-cluster single attack costs 6 detection
	// packets (d_req + two probe rounds + verdict).
	ct, ok := w.env.Tally.Lookup(attacker.NodeID())
	if !ok {
		t.Fatal("no tally case for the attacker")
	}
	if got := ct.DetectionPackets(); got != 6 {
		t.Errorf("detection packets = %d (dreq %d fwd %d probes %d replies %d respBB %d respRadio %d), want 6",
			got, ct.DReqSent, ct.DReqForwarded, ct.ProbesSent, ct.ProbeReplies, ct.RespBackbone, ct.RespRadio)
	}
	if ct.Verdict != wire.VerdictMalicious {
		t.Errorf("tally verdict = %v", ct.Verdict)
	}
}

func TestDetectionAcrossClusters(t *testing.T) {
	// Reporter in cluster 1, attacker registered in cluster 2: the d_req is
	// forwarded over the backbone and the verdict relayed back (8 packets).
	w := newWorld(t, 3)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2700, 15, mobility.Eastbound, VehicleConfig{})
	attacker, _ := w.addBlackhole(1100, 15, mobility.Eastbound, attack.DefaultProfile())
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 30*time.Second)
	if res.Status != StatusDetected {
		t.Fatalf("status = %v, want detected", res.Status)
	}
	ct, ok := w.env.Tally.Lookup(attacker.NodeID())
	if !ok {
		t.Fatal("no tally case")
	}
	if ct.DReqForwarded != 1 {
		t.Errorf("DReqForwarded = %d, want 1", ct.DReqForwarded)
	}
	if ct.RespBackbone != 1 {
		t.Errorf("RespBackbone = %d, want 1", ct.RespBackbone)
	}
	if got := ct.DetectionPackets(); got != 8 {
		t.Errorf("detection packets = %d, want 8", got)
	}
	// Both the detecting head and the reporter's head blacklist the node
	// (adjacent-cluster notice).
	if !w.heads[2].Membership().IsBlacklisted(attacker.NodeID()) {
		t.Error("attacker not blacklisted in its own cluster")
	}
	w.sched.RunFor(time.Second)
	if !w.heads[1].Membership().IsBlacklisted(attacker.NodeID()) {
		t.Error("attacker not blacklisted in the adjacent cluster")
	}
}

func TestCooperativeAttackersBothIsolated(t *testing.T) {
	w := newWorld(t, 4)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})

	// Two cooperating attackers in mutual range, same cluster as source.
	// The accomplice only endorses (paper's B2); the primary attracts the
	// traffic and names it when probed.
	p2 := attack.DefaultProfile()
	p2.SupportOnly = true
	b2, _ := w.addBlackhole(950, 15, mobility.Eastbound, p2)
	p1 := attack.DefaultProfile()
	p1.Teammate = b2.NodeID()
	b1, _ := w.addBlackhole(800, 15, mobility.Eastbound, p1)
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 30*time.Second)
	if res.Status != StatusDetected {
		t.Fatalf("status = %v, want detected", res.Status)
	}
	ct, ok := w.env.Tally.Lookup(res.Suspect)
	if !ok {
		t.Fatal("no tally case")
	}
	if ct.Teammate == 0 {
		t.Fatal("cooperative teammate not exposed")
	}
	w.sched.RunFor(time.Second)
	for _, a := range []wire.NodeID{b1.NodeID(), b2.NodeID()} {
		if !w.heads[1].Membership().IsBlacklisted(a) {
			t.Errorf("attacker %v not blacklisted", a)
		}
	}
	// Cooperative detection costs the single-attack packets plus two
	// (teammate probe + reply): 8 in the same-cluster case.
	if got := ct.DetectionPackets(); got != 8 {
		t.Errorf("detection packets = %d, want 8 (6 + teammate pair)", got)
	}
}

func TestFakeHelloReplyTriggersImmediateReport(t *testing.T) {
	p := attack.DefaultProfile()
	p.FakeHelloReplyProb = 1
	w := newWorld(t, 5)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	_, bh := w.addBlackhole(800, 15, mobility.Eastbound, p)
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 30*time.Second)
	if res.Status != StatusDetected {
		t.Fatalf("status = %v, want detected", res.Status)
	}
	if bh.Stats().FakeHelloSent == 0 {
		t.Error("attacker never sent the fake hello; scenario broken")
	}
	if src.Stats().AnonymityFakes == 0 {
		t.Error("source did not classify the reply as an anonymity response")
	}
	// Immediate report: only one discovery round needed.
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (anonymity response skips round 2)", res.Rounds)
	}
}

func TestLegitimateSuspectCleared(t *testing.T) {
	// A manual report against an honest node: the head probes it twice,
	// gets nothing (an honest node has no route to a nonexistent
	// destination), and clears it. No false positive, 4 packets.
	w := newWorld(t, 6)
	reporter := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	honest := w.addVehicle(800, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)

	var got *EstablishResult
	err := reporter.ReportSuspect(honest.NodeID(), 1, honest.Credential().Serial(),
		func(r EstablishResult) { got = &r })
	if err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(15 * time.Second)
	if got == nil {
		t.Fatal("report never resolved")
	}
	if got.Status != StatusCleared || got.Verdict != wire.VerdictLegitimate {
		t.Fatalf("result = %v/%v, want cleared/legitimate", got.Status, got.Verdict)
	}
	if w.heads[1].Membership().IsBlacklisted(honest.NodeID()) {
		t.Error("FALSE POSITIVE: honest node blacklisted")
	}
	if w.ta.Stats().Revocations != 0 {
		t.Error("FALSE POSITIVE: honest node revoked")
	}
	ct, _ := w.env.Tally.Lookup(honest.NodeID())
	if got := ct.DetectionPackets(); got != 4 {
		t.Errorf("detection packets = %d, want 4 (d_req + 2 silent probes + verdict)", got)
	}
}

func TestLegitimateSuspectRemoteCluster(t *testing.T) {
	// Reporter in cluster 1, honest suspect in cluster 3: 6 packets.
	w := newWorld(t, 7)
	reporter := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	honest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)

	var got *EstablishResult
	err := reporter.ReportSuspect(honest.NodeID(), 3, 0, func(r EstablishResult) { got = &r })
	if err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(15 * time.Second)
	if got == nil || got.Status != StatusCleared {
		t.Fatalf("result = %+v, want cleared", got)
	}
	ct, _ := w.env.Tally.Lookup(honest.NodeID())
	if got := ct.DetectionPackets(); got != 6 {
		t.Errorf("detection packets = %d, want 6", got)
	}
}

func TestIsolatedAttackerCannotRenew(t *testing.T) {
	w := newWorld(t, 8)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	attacker, _ := w.addBlackhole(800, 15, mobility.Eastbound, attack.DefaultProfile())
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 30*time.Second)
	if res.Status != StatusDetected {
		t.Fatalf("status = %v, want detected", res.Status)
	}
	// The revoked attacker asks for a new pseudonym; the TA must refuse.
	if err := attacker.RenewCertificate(); err != nil {
		t.Fatalf("RenewCertificate: %v", err)
	}
	w.sched.RunFor(2 * time.Second)
	if attacker.Stats().RenewalsApplied != 0 {
		t.Error("revoked attacker obtained a fresh certificate")
	}
	if w.ta.Stats().RenewalsDenied == 0 {
		t.Error("TA did not deny the renewal")
	}
}

func TestRouteReestablishedAfterIsolation(t *testing.T) {
	w := newWorld(t, 9)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	attacker, _ := w.addBlackhole(800, 15, mobility.Eastbound, attack.DefaultProfile())
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 30*time.Second)
	if res.Status != StatusDetected {
		t.Fatalf("first establishment = %v, want detected", res.Status)
	}
	w.sched.RunFor(time.Second) // blacklist notice propagates

	res2 := w.establish(src, dest.NodeID(), 30*time.Second)
	if res2.Status != StatusVerified {
		t.Fatalf("second establishment = %v, want verified", res2.Status)
	}
	if res2.Via == attacker.NodeID() {
		t.Error("second route still goes through the attacker")
	}
	// And data now arrives.
	var delivered int
	dest.OnDataReceived(func(*wire.Data, wire.NodeID) { delivered++ })
	for i := 0; i < 3; i++ {
		if err := src.SendData(dest.NodeID(), []byte("x")); err != nil {
			t.Fatalf("SendData: %v", err)
		}
	}
	w.sched.RunFor(2 * time.Second)
	if delivered != 3 {
		t.Errorf("delivered %d/3 after isolation", delivered)
	}
}

func TestEvasiveAttackerActsLegitimately(t *testing.T) {
	// An attacker that always acts legitimately under evasion never forges,
	// so establishment succeeds through honest nodes and nothing is
	// detected — the paper's "prevent but not detect" region.
	p := attack.DefaultProfile()
	p.ActLegitProb = 1
	p.EvasiveWhen = func() bool { return true }
	w := newWorld(t, 10)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	_, bh := w.addBlackhole(800, 15, mobility.Eastbound, p)
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 30*time.Second)
	if res.Status != StatusVerified {
		t.Fatalf("status = %v, want verified (attacker lying low)", res.Status)
	}
	if bh.Stats().RepliesForged != 0 {
		t.Error("supposedly dormant attacker forged replies")
	}
	if w.ta.Stats().Revocations != 0 {
		t.Error("revocation without an attack")
	}
}

func TestAttackerFleesMidDetection(t *testing.T) {
	// The attacker forges once (non-evasive on the first request due to the
	// profile draw), then flees when the head probes it: detection cannot
	// conclude; the head reports it unreachable or the report times out —
	// either way a false negative, never a false positive.
	p := attack.DefaultProfile()
	firstForged := false
	p.FleeProb = 1
	p.EvasiveWhen = func() bool {
		// Attack the first request (the victim's), evade afterwards (the
		// head's probes).
		if !firstForged {
			firstForged = true
			return false
		}
		return true
	}
	w := newWorld(t, 11)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	attacker, bh := w.addBlackhole(800, 15, mobility.Eastbound, p)
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 40*time.Second)
	if res.Status == StatusDetected {
		t.Fatalf("fled attacker was somehow detected")
	}
	if bh.Stats().Fled == 0 {
		t.Error("attacker never fled; scenario broken")
	}
	if w.heads[1].Membership().IsBlacklisted(attacker.NodeID()) {
		t.Error("fled attacker blacklisted without confirmation")
	}
}

func TestAttackerRenewsMidDetection(t *testing.T) {
	// The attacker renews its certificate when probed: the old pseudonym
	// goes silent, probes time out, and the examination clears or loses the
	// suspect — a false negative by identity churn.
	p := attack.DefaultProfile()
	first := false
	p.RenewProb = 1
	p.EvasiveWhen = func() bool {
		if !first {
			first = true
			return false
		}
		return true
	}
	w := newWorld(t, 12)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	attacker, _ := w.addBlackhole(800, 15, mobility.Eastbound, p)
	oldID := attacker.NodeID()
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 40*time.Second)
	if res.Status == StatusDetected && res.Suspect == attacker.NodeID() {
		t.Fatalf("renewed attacker convicted under its new identity")
	}
	w.sched.RunFor(5 * time.Second)
	if attacker.Stats().RenewalsApplied == 0 {
		t.Error("attacker never completed the renewal; scenario broken")
	}
	if attacker.NodeID() == oldID {
		t.Error("pseudonym did not rotate")
	}
}

func TestRedundantReportsDeduplicated(t *testing.T) {
	// Two reporters flag the same suspect: one examination, one probe
	// sequence, two verdicts delivered.
	w := newWorld(t, 13)
	r1 := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	r2 := w.addVehicle(400, 15, mobility.Eastbound, VehicleConfig{})
	honest := w.addVehicle(800, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)

	var got1, got2 *EstablishResult
	if err := r1.ReportSuspect(honest.NodeID(), 1, 0, func(r EstablishResult) { got1 = &r }); err != nil {
		t.Fatal(err)
	}
	if err := r2.ReportSuspect(honest.NodeID(), 1, 0, func(r EstablishResult) { got2 = &r }); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(15 * time.Second)
	if got1 == nil || got2 == nil {
		t.Fatal("verdicts not delivered to both reporters")
	}
	if w.heads[1].Stats().DReqDuplicates != 1 {
		t.Errorf("DReqDuplicates = %d, want 1", w.heads[1].Stats().DReqDuplicates)
	}
	ct, _ := w.env.Tally.Lookup(honest.NodeID())
	if ct.ProbesSent != 2 {
		t.Errorf("ProbesSent = %d, want 2 (no extra probes for the duplicate)", ct.ProbesSent)
	}
	if ct.RespRadio != 2 {
		t.Errorf("RespRadio = %d, want 2 (one verdict per reporter)", ct.RespRadio)
	}
}

func TestUnsignedDReqIgnored(t *testing.T) {
	w := newWorld(t, 14)
	honest := w.addVehicle(800, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)

	// Craft a bare (unsigned) d_req and fire it at the head directly.
	dr := &wire.DetectReq{Reporter: 424242, ReporterCluster: 1, Suspect: honest.NodeID(), SuspectCluster: 1}
	b, err := dr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rogue := w.env.Medium.Attach(424242, mobility.Static{Pos: mobility.Position{X: 400, Y: 100}, H: w.env.Highway},
		func(radio.Frame) {})
	rogue.Send(w.heads[1].NodeID(), b)
	w.sched.RunFor(5 * time.Second)

	if w.heads[1].Stats().Examinations != 0 {
		t.Error("unsigned d_req triggered an examination")
	}
	if w.heads[1].Stats().AuthFailures == 0 {
		t.Error("authentication failure not counted")
	}
}

func TestPlainAODVModeTrustsAttacker(t *testing.T) {
	// The undefended baseline: with Verify off, the source installs the
	// attacker's route and its data dies in the black hole.
	w := newWorld(t, 15)
	cfg := VehicleConfig{}
	src := w.addVehicle(300, 15, mobility.Eastbound, cfg)
	src.cfg.Verify = false
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	_, bh := w.addBlackhole(800, 15, mobility.Eastbound, attack.DefaultProfile())
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 15*time.Second)
	if res.Status != StatusUnverified {
		t.Fatalf("status = %v, want unverified", res.Status)
	}
	var delivered int
	dest.OnDataReceived(func(*wire.Data, wire.NodeID) { delivered++ })
	for i := 0; i < 5; i++ {
		if err := src.SendData(dest.NodeID(), []byte("x")); err != nil {
			t.Fatalf("SendData: %v", err)
		}
	}
	w.sched.RunFor(2 * time.Second)
	if delivered != 0 {
		t.Errorf("delivered %d packets through a black hole, want 0", delivered)
	}
	if bh.Stats().DataDropped == 0 {
		t.Error("attacker dropped nothing; route did not go through it")
	}
}

func TestTallyArithmetic(t *testing.T) {
	tal := NewTally()
	step := func(k trace.Kind, at time.Duration) {
		tal.record(trace.Event{At: at, Kind: k, Suspect: 5})
	}
	step(trace.DReqFiled, time.Second)
	step(trace.DReqFiled, 2*time.Second) // a retransmission keeps the first report time
	for _, k := range []trace.Kind{trace.DReqForwarded, trace.BaitRREQ1, trace.BaitRREQ2, trace.TeammateProbe,
		trace.ProbeReply, trace.VerdictRelayed, trace.VerdictDelivered, trace.Examining, trace.Isolated} {
		step(k, 3*time.Second)
	}
	c, ok := tal.Lookup(5)
	if !ok {
		t.Fatal("no case for the suspect")
	}
	if got := c.DetectionPackets(); got != 9 || c.ProbesSent != 3 || c.ReportedAt != time.Second {
		t.Errorf("DetectionPackets = %d, probes %d, reported at %v; want 9, 3, 1s", got, c.ProbesSent, c.ReportedAt)
	}
	tal.record(trace.Event{Kind: trace.IsolationPackets, Suspect: 5, Count: 3})
	tal.record(trace.Event{Kind: trace.IsolationPackets, Suspect: 6, Count: 4}) // no case: not charged
	if c.IsolationPackets != 3 {
		t.Errorf("IsolationPackets = %d, want 3", c.IsolationPackets)
	}
	tal.record(trace.Event{At: 4 * time.Second, Kind: trace.CaseResolved, Suspect: 5, Verdict: wire.VerdictMalicious, Peer: 7})
	tal.record(trace.Event{At: 5 * time.Second, Kind: trace.CaseResolved, Suspect: 5, Verdict: wire.VerdictLegitimate}) // later resolutions ignored
	if c.Verdict != wire.VerdictMalicious || c.Teammate != 7 || c.ResolvedAt != 4*time.Second {
		t.Errorf("resolution overwritten: %v/%v at %v", c.Verdict, c.Teammate, c.ResolvedAt)
	}
	if len(tal.Cases()) != 1 || tal.TotalDetectionPackets() != 9 {
		t.Error("aggregate views wrong")
	}

	// Nil safety.
	var nilT *Tally
	nilT.record(trace.Event{Kind: trace.BaitRREQ1, Suspect: 1})
	if nilT.TotalDetectionPackets() != 0 {
		t.Error("nil tally not inert")
	}
}

// TestRecordAllocs pins the step hook's cost with tracing off: nothing, with
// or without a tally (once the case exists).
func TestRecordAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race runtime inflates allocation counts")
	}
	env := Env{Sched: sim.NewScheduler()}
	ev := trace.Event{Kind: trace.DReqForwarded, Node: 1, Suspect: 2, Peer: 3, Err: errNoAuthority}
	if n := testing.AllocsPerRun(100, func() { env.record(ev) }); n != 0 {
		t.Errorf("record with no sinks: %v allocs, want 0", n)
	}
	env.Tally = NewTally()
	env.record(ev)
	if n := testing.AllocsPerRun(100, func() { env.record(ev) }); n != 0 {
		t.Errorf("record into the tally: %v allocs, want 0", n)
	}
}

// TestAllocsOverheardJoinReq pins a vehicle's path for a neighbour's bare
// join request: it decodes into the agent's scratch and marks the sender
// heard without allocating, and a frame that fails to decode marks nobody.
func TestAllocsOverheardJoinReq(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	w := newWorld(t, 1)
	v := w.addVehicle(1500, 0, mobility.Eastbound, VehicleConfig{})
	payload, err := (&wire.JoinReq{Vehicle: 77, PosX: 1500, PosY: 100, SpeedMS: 20, Eastbound: true}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v.HandleFrame(radio.Frame{From: 78, To: wire.Broadcast, Payload: payload[:len(payload)-1]})
	if slices.Contains(v.router.Neighbors(), 78) {
		t.Fatal("a truncated join request marked its sender heard")
	}
	f := radio.Frame{From: 77, To: wire.Broadcast, Payload: payload}
	v.HandleFrame(f)
	if !slices.Contains(v.router.Neighbors(), 77) {
		t.Fatal("an overheard join request did not mark its sender heard")
	}
	if got := testing.AllocsPerRun(200, func() { v.HandleFrame(f) }); got > 0 {
		t.Errorf("overheard join request: %.1f allocs/op, budget 0", got)
	}
}
