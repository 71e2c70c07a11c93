package core

import (
	"testing"
	"time"

	"blackdp/internal/attack"
	"blackdp/internal/mobility"
	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/wire"
)

func TestAlreadyBlacklistedSuspectAnsweredImmediately(t *testing.T) {
	w := newWorld(t, 30)
	reporter := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)

	// The head already knows this pseudonym is revoked.
	w.heads[1].Membership().AddRevoked(wire.RevokedCert{Node: 6666, CertSerial: 1, Expiry: time.Hour})

	var got *EstablishResult
	if err := reporter.ReportSuspect(6666, 1, 1, func(r EstablishResult) { got = &r }); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(3 * time.Second)
	if got == nil {
		t.Fatal("no verdict")
	}
	if got.Verdict != wire.VerdictAlreadyKnown {
		t.Errorf("verdict = %v, want already-known", got.Verdict)
	}
	if got.Status != StatusDetected {
		t.Errorf("status = %v, want detected (isolation already in force)", got.Status)
	}
	// No probes were spent.
	ct, _ := w.env.Tally.Lookup(6666)
	if ct.ProbesSent != 0 {
		t.Errorf("ProbesSent = %d for an already-known attacker", ct.ProbesSent)
	}
}

func TestUnknownSuspectUnreachable(t *testing.T) {
	// A d_req naming a pseudonym registered nowhere ends as unreachable
	// (bounded by maxForwards), never as a conviction.
	w := newWorld(t, 31)
	reporter := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)

	var got *EstablishResult
	if err := reporter.ReportSuspect(424242, 0, 0, func(r EstablishResult) { got = &r }); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(5 * time.Second)
	if got == nil {
		t.Fatal("no verdict")
	}
	if got.Verdict != wire.VerdictUnreachable || got.Status != StatusUnresolved {
		t.Errorf("result = %v/%v, want unresolved/unreachable", got.Status, got.Verdict)
	}
	if w.ta.Stats().Revocations != 0 {
		t.Error("unknown suspect revoked")
	}
}

func TestForwardedDReqFromNonHeadIgnored(t *testing.T) {
	w := newWorld(t, 32)
	honest := w.addVehicle(800, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)

	// A rogue infrastructure endpoint (not a registered head) injects a
	// d_req over the backbone.
	rogue, err := w.env.Backbone.Attach(999999, 3, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	dr := &wire.DetectReq{Reporter: 1, ReporterCluster: 1, Suspect: honest.NodeID(), SuspectCluster: 1}
	b, err := dr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := rogue.Send(w.heads[1].NodeID(), b); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(3 * time.Second)
	if w.heads[1].Stats().Examinations != 0 {
		t.Error("backbone d_req from a non-head triggered an examination")
	}
}

func TestRogueRevocationRequestIgnored(t *testing.T) {
	w := newWorld(t, 33)
	honest := w.addVehicle(800, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)

	rogue, err := w.env.Backbone.Attach(999998, 3, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	req := &wire.RevocationReq{Head: 999998, Suspect: honest.NodeID(), CertSerial: honest.Credential().Serial()}
	b, err := req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := rogue.Send(w.ta.NodeID(), b); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(time.Second)
	if w.ta.Stats().Revocations != 0 {
		t.Error("TA honoured a revocation request from a non-head")
	}
	if w.ta.Authority().IsRevoked(honest.Credential().Serial()) {
		t.Error("honest certificate revoked by a rogue request")
	}
}

func TestHonestVehicleRenewalRotatesPseudonym(t *testing.T) {
	w := newWorld(t, 34)
	v := w.addVehicle(800, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)
	old := v.NodeID()
	oldSerial := v.Credential().Serial()

	if err := v.RenewCertificate(); err != nil {
		t.Fatal(err)
	}
	// A second request while one is pending is refused.
	if err := v.RenewCertificate(); err == nil {
		t.Error("concurrent renewal accepted")
	}
	w.sched.RunFor(3 * time.Second)

	if v.NodeID() == old {
		t.Fatal("pseudonym did not rotate")
	}
	if v.Credential().Serial() == oldSerial {
		t.Error("serial did not advance")
	}
	if v.Stats().RenewalsApplied != 1 {
		t.Errorf("RenewalsApplied = %d", v.Stats().RenewalsApplied)
	}
	// The vehicle re-registered under the new identity.
	w.sched.RunFor(2 * time.Second)
	if !w.heads[1].Membership().IsMember(v.NodeID()) {
		t.Error("renewed vehicle not re-registered with its head")
	}
	// And it can still run verified establishments.
	dest := w.addVehicle(1500, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)
	res := w.establish(v, dest.NodeID(), 15*time.Second)
	if res.Status != StatusVerified {
		t.Errorf("post-renewal establishment = %v", res.Status)
	}
}

func TestEstablishRouteRejectsDuplicates(t *testing.T) {
	w := newWorld(t, 35)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	dest := w.addVehicle(900, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)
	if err := src.EstablishRoute(dest.NodeID(), func(EstablishResult) {}); err != nil {
		t.Fatal(err)
	}
	if err := src.EstablishRoute(dest.NodeID(), func(EstablishResult) {}); err == nil {
		t.Error("concurrent establishment to the same destination accepted")
	}
	if err := src.EstablishRoute(dest.NodeID(), nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestUnsignedForgedRepliesAreDiscarded(t *testing.T) {
	// An attacker too lazy to sign its forgeries cannot even get probed:
	// unsigned replies fail source authentication outright.
	w := newWorld(t, 36)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})

	// Build the attacker without a Seal hook: bare forged replies.
	v := w.addVehicle(800, 15, mobility.Eastbound, VehicleConfig{})
	bh := attack.NewBlackhole(attack.DefaultProfile(), attack.Env{
		Sched:   w.sched,
		RNG:     w.env.RNG.Split("lazy-attacker"),
		Send:    v.Interface().Send,
		Self:    v.Interface().NodeID,
		Cluster: v.Client().Cluster,
		Inner:   v.HandleFrame,
	})
	v.Interface().SetReceiver(bh.HandleFrame)
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 30*time.Second)
	if res.Status != StatusVerified {
		t.Fatalf("status = %v, want verified via the honest chain", res.Status)
	}
	if res.Via == v.NodeID() {
		t.Error("route accepted through the unsigned forger")
	}
	if src.Stats().AuthViolations == 0 {
		t.Error("unsigned replies not counted as authentication violations")
	}
	if bh.Stats().RepliesForged == 0 {
		t.Error("attacker never forged; scenario broken")
	}
}

func TestImpersonatedIssuerDiscarded(t *testing.T) {
	// A forged reply claiming another node's identity but sealed with the
	// attacker's own certificate must fail the cert/issuer binding check.
	w := newWorld(t, 37)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	victim := w.addVehicle(400, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})

	v := w.addVehicle(800, 15, mobility.Eastbound, VehicleConfig{})
	bh := attack.NewBlackhole(attack.DefaultProfile(), attack.Env{
		Sched:   w.sched,
		RNG:     w.env.RNG.Split("impersonator"),
		Send:    v.Interface().Send,
		Self:    victim.Interface().NodeID, // frames itself as the victim
		Cluster: v.Client().Cluster,
		Seal: func(p wire.Packet) ([]byte, error) {
			sec, err := pki.Seal(p, v.Credential(), w.env.Scheme) // but signs as itself
			if err != nil {
				return nil, err
			}
			return sec.MarshalBinary()
		},
		Inner: v.HandleFrame,
	})
	v.Interface().SetReceiver(bh.HandleFrame)
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 30*time.Second)
	if res.Suspect == victim.NodeID() && res.Status == StatusDetected {
		t.Fatal("FRAMED: the victim was convicted for the attacker's forgery")
	}
	if w.heads[1].Membership().IsBlacklisted(victim.NodeID()) {
		t.Error("victim blacklisted")
	}
}

func TestHandoffCarriesAllReporters(t *testing.T) {
	// Two reporters flag a suspect that crosses into the next cluster
	// mid-examination; the case hand-off must deliver a verdict to both.
	w := newWorldWithHeads(t, 40, HeadConfig{StageDelay: 2500 * time.Millisecond})
	r1 := w.addVehicle(200, 14, mobility.Eastbound, VehicleConfig{})
	r2 := w.addVehicle(300, 14, mobility.Eastbound, VehicleConfig{})
	// Suspect 50 m short of the cluster-1 boundary at 25 m/s: it answers
	// the first probe in cluster 1 and is gone before the second.
	attacker, _ := w.addBlackhole(950, 25, mobility.Eastbound, attack.DefaultProfile())
	w.sched.RunFor(time.Second)

	var v1, v2 *EstablishResult
	serial := attacker.Credential().Serial()
	if err := r1.ReportSuspect(attacker.NodeID(), 1, serial, func(r EstablishResult) { v1 = &r }); err != nil {
		t.Fatal(err)
	}
	if err := r2.ReportSuspect(attacker.NodeID(), 1, serial, func(r EstablishResult) { v2 = &r }); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(15 * time.Second)
	if v1 == nil || v2 == nil {
		t.Fatalf("verdicts delivered: r1=%v r2=%v; the hand-off dropped a reporter", v1 != nil, v2 != nil)
	}
	if v1.Status != StatusDetected || v2.Status != StatusDetected {
		t.Errorf("statuses = %v/%v, want detected for both", v1.Status, v2.Status)
	}
	// The examination itself was handed over (one forward at least) and
	// run once.
	ct, _ := w.env.Tally.Lookup(attacker.NodeID())
	if ct.DReqForwarded == 0 {
		t.Error("no hand-off happened; the scenario timing is off")
	}
	if ct.ProbesSent > 3 {
		t.Errorf("ProbesSent = %d; the second reporter must not trigger extra probes", ct.ProbesSent)
	}
}

func TestGrayHoleStillConvicted(t *testing.T) {
	// A selective dropper that forges routes is caught exactly like the
	// pure black hole: BlackDP's bait probe keys on the forgery, not on
	// how much traffic the node lets through.
	p := attack.DefaultProfile()
	p.DropProb = 0.3
	w := newWorld(t, 39)
	src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
	w.legitChain(1200, 1900)
	dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
	attacker, _ := w.addBlackhole(800, 15, mobility.Eastbound, p)
	w.sched.RunFor(time.Second)

	res := w.establish(src, dest.NodeID(), 30*time.Second)
	if res.Status != StatusDetected || res.Suspect != attacker.NodeID() {
		t.Fatalf("gray hole not detected: %+v", res)
	}
}

func TestDetectRespForWrongReporterIgnored(t *testing.T) {
	w := newWorld(t, 38)
	v := w.addVehicle(800, 15, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)

	// A verdict addressed to someone else, even properly sealed by a head,
	// must not resolve anything here.
	resp := &wire.DetectResp{Reporter: 12345, Suspect: 66, Verdict: wire.VerdictMalicious}
	sec, err := pki.Seal(resp, w.heads[1].Credential(), w.env.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	before := v.Stats().VerdictsGot
	v.HandleFrame(radio.Frame{From: w.heads[1].NodeID(), To: 12345, Payload: b})
	if v.Stats().VerdictsGot != before {
		t.Error("foreign verdict consumed")
	}
}
