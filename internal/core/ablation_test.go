package core

import (
	"testing"
	"time"

	"blackdp/internal/aodv"
	"blackdp/internal/attack"
	"blackdp/internal/mobility"
	"blackdp/internal/wire"
)

// The DESIGN.md design-decision ablations: these tests demonstrate WHY the
// paper's protocol has each piece, by turning it off and watching what
// breaks (or what gets wasted).

func TestProbeBeforeReportAvoidsWastedExaminations(t *testing.T) {
	// An honest intermediate with a cached route answers a TTL-limited
	// discovery. With the paper's Hello probe the route verifies end to
	// end and nobody is reported; with the ablation the honest node is
	// reported, examined and cleared — correct but wasteful.
	build := func(seed int64, skipProbe bool) (*world, *VehicleAgent, *VehicleAgent, *VehicleAgent) {
		w := newWorld(t, seed)
		src := w.addVehicle(300, 14, mobility.Eastbound, VehicleConfig{ReportWithoutProbe: skipProbe})
		src.floodTTL = 2 // the source's flood cannot reach the destination
		mid := w.addVehicle(1200, 14, mobility.Eastbound, VehicleConfig{})
		w.addVehicle(1900, 14, mobility.Eastbound, VehicleConfig{})
		dest := w.addVehicle(2500, 14, mobility.Eastbound, VehicleConfig{})
		w.sched.RunFor(time.Second)
		// Prime the intermediate's route cache.
		primed := false
		if err := mid.Router().Discover(dest.NodeID(), func(aodv.DiscoverResult) { primed = true }); err != nil {
			t.Fatal(err)
		}
		w.runUntil(10*time.Second, func() bool { return primed })
		return w, src, mid, dest
	}

	t.Run("with probe (paper)", func(t *testing.T) {
		w, src, mid, dest := build(50, false)
		res := w.establish(src, dest.NodeID(), 30*time.Second)
		if res.Status != StatusVerified || res.Via != mid.NodeID() {
			t.Fatalf("result = %+v, want verified via the honest intermediate", res)
		}
		if src.Stats().ReportsFiled != 0 {
			t.Error("paper flow reported an honest intermediate")
		}
	})
	t.Run("without probe (ablation)", func(t *testing.T) {
		w, src, mid, dest := build(50, true)
		res := w.establish(src, dest.NodeID(), 30*time.Second)
		if res.Status != StatusCleared || res.Suspect != mid.NodeID() {
			t.Fatalf("result = %+v, want the honest intermediate reported then cleared", res)
		}
		// Still no false positive — the CH examination is the backstop...
		if w.heads[2].Membership().IsBlacklisted(mid.NodeID()) {
			t.Error("FALSE POSITIVE under the ablation")
		}
		// ...but a full examination was burned on an innocent node.
		ct, ok := w.env.Tally.Lookup(mid.NodeID())
		if !ok || ct.DetectionPackets() == 0 {
			t.Error("no examination recorded; the ablation did not fire")
		}
	})
}

func TestVerificationQueueSerialisesWork(t *testing.T) {
	// With AuthProcessing configured and no fog nodes, the head is a
	// single-server queue: n simultaneous d_reqs finish authentication at
	// strictly increasing multiples of the processing cost.
	w := newWorldWithHeads(t, 52, HeadConfig{AuthProcessing: 50 * time.Millisecond})
	var reporters []*VehicleAgent
	for i := 0; i < 4; i++ {
		reporters = append(reporters, w.addVehicle(200+float64(i)*50, 14, mobility.Eastbound, VehicleConfig{}))
	}
	honest := w.addVehicle(800, 14, mobility.Eastbound, VehicleConfig{})
	w.sched.RunFor(time.Second)

	verdicts := 0
	for _, r := range reporters {
		if err := r.ReportSuspect(honest.NodeID(), 1, 0, func(EstablishResult) { verdicts++ }); err != nil {
			t.Fatal(err)
		}
	}
	w.sched.RunFor(20 * time.Second)
	if verdicts != len(reporters) {
		t.Fatalf("verdicts = %d, want %d", verdicts, len(reporters))
	}
	st := w.heads[1].Stats()
	if st.AuthQueued != uint64(len(reporters)) {
		t.Errorf("AuthQueued = %d, want %d", st.AuthQueued, len(reporters))
	}
	// The last of four near-simultaneous arrivals waits ~4 service times.
	if st.AuthMaxLatency < 150*time.Millisecond || st.AuthMaxLatency > 400*time.Millisecond {
		t.Errorf("AuthMaxLatency = %v, want roughly 4x50ms for a serialised burst", st.AuthMaxLatency)
	}
}

func TestSingleProbeAblationMissesTeammate(t *testing.T) {
	// The second bait probe carries the next-hop inquiry; without it the
	// primary still falls, but the accomplice survives.
	build := func(seed int64, single bool) (*world, *VehicleAgent, *VehicleAgent, wire.NodeID) {
		w := newWorldWithHeads(t, seed, HeadConfig{SingleProbe: single})
		src := w.addVehicle(300, 15, mobility.Eastbound, VehicleConfig{})
		w.legitChain(1200, 1900)
		dest := w.addVehicle(2500, 15, mobility.Eastbound, VehicleConfig{})
		p2 := attack.DefaultProfile()
		p2.SupportOnly = true
		b2, _ := w.addBlackhole(950, 15, mobility.Eastbound, p2)
		p1 := attack.DefaultProfile()
		p1.Teammate = b2.NodeID()
		b1, _ := w.addBlackhole(800, 15, mobility.Eastbound, p1)
		w.sched.RunFor(time.Second)
		res := w.establish(src, dest.NodeID(), 30*time.Second)
		if res.Status != StatusDetected || res.Suspect != b1.NodeID() {
			t.Fatalf("primary not detected: %+v", res)
		}
		w.sched.RunFor(time.Second)
		return w, b1, b2, b2.NodeID()
	}

	t.Run("two probes (paper)", func(t *testing.T) {
		w, b1, b2, _ := build(51, false)
		if !w.heads[1].Membership().IsBlacklisted(b1.NodeID()) || !w.heads[1].Membership().IsBlacklisted(b2.NodeID()) {
			t.Error("paper flow must isolate both attackers")
		}
	})
	t.Run("single probe (ablation)", func(t *testing.T) {
		w, b1, _, teammateID := build(51, true)
		if !w.heads[1].Membership().IsBlacklisted(b1.NodeID()) {
			t.Error("primary not isolated")
		}
		if w.heads[1].Membership().IsBlacklisted(teammateID) {
			t.Error("teammate isolated without the next-hop inquiry — ablation did not fire")
		}
		ct, _ := w.env.Tally.Lookup(b1.NodeID())
		if ct.Teammate != 0 {
			t.Errorf("teammate %v exposed without the second probe", ct.Teammate)
		}
		// And it is cheaper: a same-cluster single-probe case costs 4
		// detection packets instead of 6.
		if got := ct.DetectionPackets(); got != 4 {
			t.Errorf("detection packets = %d, want 4 under single-probe", got)
		}
	})
}
