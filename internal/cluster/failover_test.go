package cluster

import (
	"testing"
	"time"

	"blackdp/internal/mobility"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

func TestHeadAdmitsAdjacentFailoverJoin(t *testing.T) {
	hh := newHeadHarness(t, 2) // covers [1000, 2000)
	// A failover join from the next segment over is admitted...
	hh.head.HandlePacket(&wire.JoinReq{Vehicle: 21, PosX: 2500, PosY: 100, Failover: true}, 21)
	if !hh.head.IsMember(21) {
		t.Fatal("adjacent failover join not admitted")
	}
	if hh.head.Stats().FailoverJoins != 1 {
		t.Errorf("FailoverJoins = %d, want 1", hh.head.Stats().FailoverJoins)
	}
	// ...but not from two segments away: that vehicle has a nearer neighbour.
	hh.head.HandlePacket(&wire.JoinReq{Vehicle: 22, PosX: 4500, PosY: 100, Failover: true}, 22)
	if hh.head.IsMember(22) {
		t.Error("far failover join admitted; only adjacent segments may fail over")
	}
	if hh.head.Stats().RejectedJoins != 1 {
		t.Errorf("RejectedJoins = %d, want 1", hh.head.Stats().RejectedJoins)
	}
}

// silentClient wires a Client to a sender that records join requests and
// never answers.
func silentClient(t *testing.T) (*Client, *sim.Scheduler, *[]wire.JoinReq) {
	t.Helper()
	hw := testHighway(t)
	sched := sim.NewScheduler()
	mob, err := mobility.NewMobileOnRoad(hw, hw.Roads()[0], mobility.Position{X: 1500, Y: 50}, mobility.Eastbound, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []wire.JoinReq
	send := func(to wire.NodeID, payload []byte) {
		if p, err := wire.Decode(payload); err == nil {
			if jr, ok := p.(*wire.JoinReq); ok {
				reqs = append(reqs, *jr)
			}
		}
	}
	c := NewClient(sched, hw, mob, 1000, send, func() wire.NodeID { return 21 }, ClientCallbacks{})
	return c, sched, &reqs
}

func TestClientEscalatesToFailoverWhenUnanswered(t *testing.T) {
	c, sched, reqs := silentClient(t)
	c.Start()
	sched.RunFor(6 * time.Second) // initial + retries at 1s intervals
	if len(*reqs) < failoverAfter+2 {
		t.Fatalf("only %d join requests sent", len(*reqs))
	}
	for i, r := range *reqs {
		want := i >= failoverAfter
		if r.Failover != want {
			t.Errorf("request %d: Failover = %v, want %v", i, r.Failover, want)
		}
	}
	c.Stop()
}

func TestClientRejoinRaisesFailoverFlag(t *testing.T) {
	c, sched, reqs := silentClient(t)
	c.Start()
	// Admit on the first request.
	c.HandlePacket(&wire.JoinRep{Head: 1002, Cluster: 2, Vehicle: 21}, 1002)
	if c.Cluster() != 2 {
		t.Fatal("client did not register")
	}
	// The detection layer gives up on the head.
	c.Rejoin()
	if c.Cluster() != 0 {
		t.Error("Rejoin left the stale registration in place")
	}
	last := (*reqs)[len(*reqs)-1]
	if !last.Failover {
		t.Error("post-Rejoin join request does not carry the failover flag")
	}
	// An adjacent head admits; the flag resets for future cycles.
	c.HandlePacket(&wire.JoinRep{Head: 1003, Cluster: 3, Vehicle: 21}, 1003)
	if c.Head() != 1003 {
		t.Errorf("client head = %v, want 1003", c.Head())
	}
	if got := c.Stats().FailoverJoins; got != 1 {
		t.Errorf("FailoverJoins = %d, want 1", got)
	}
	sched.RunFor(time.Millisecond)
	c.Stop()
}

func TestClientIgnoresCompetingJoinReply(t *testing.T) {
	c, _, _ := silentClient(t)
	c.Start()
	c.HandlePacket(&wire.JoinRep{Head: 1002, Cluster: 2, Vehicle: 21}, 1002)
	// A second head's late answer (both heard a failover broadcast) must not
	// flip the registration.
	c.HandlePacket(&wire.JoinRep{Head: 1003, Cluster: 3, Vehicle: 21}, 1003)
	if c.Head() != 1002 || c.Cluster() != 2 {
		t.Errorf("registration flip-flopped to head %v cluster %d", c.Head(), c.Cluster())
	}
	c.Stop()
}

func TestBlacklistNoticeOrderIsRevocationOrder(t *testing.T) {
	hh := newHeadHarness(t, 2)
	serials := []uint64{900, 300, 700} // deliberately unsorted
	for i, s := range serials {
		hh.head.AddRevoked(wire.RevokedCert{
			Node: wire.NodeID(40 + i), CertSerial: s, Expiry: time.Hour,
		})
	}
	var last *wire.BlacklistNotice
	for _, m := range hh.sent {
		if n, ok := m.pkt.(*wire.BlacklistNotice); ok {
			last = n
		}
	}
	if last == nil {
		t.Fatal("no blacklist notice broadcast")
	}
	if len(last.Revoked) != len(serials) {
		t.Fatalf("notice carries %d entries, want %d", len(last.Revoked), len(serials))
	}
	for i, rc := range last.Revoked {
		if rc.CertSerial != serials[i] {
			t.Errorf("notice entry %d serial = %d, want %d (revocation order)", i, rc.CertSerial, serials[i])
		}
	}
	bl := hh.head.Blacklist()
	for i, rc := range bl {
		if rc.CertSerial != serials[i] {
			t.Errorf("Blacklist()[%d] = %d, want %d", i, rc.CertSerial, serials[i])
		}
	}
}
