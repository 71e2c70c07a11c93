package aodv

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"blackdp/internal/wire"
)

// TestFloodTerminatesProperty: on random connected line topologies, a
// discovery flood always terminates, every router forwards a given flood at
// most once, and total forwards are bounded by the node count.
func TestFloodTerminatesProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%8 + 3 // 3..10 nodes
		xs := make([]float64, n)
		x := 0.0
		for i := range xs {
			xs[i] = x
			x += 300 + float64(r.Intn(600)) // 300-900 m spacing: connected
		}
		net := newTestNet(t, xs...)
		done := false
		if err := net.router(1).Discover(wire.NodeID(n), func(DiscoverResult) { done = true }); err != nil {
			return false
		}
		net.sched.RunFor(10 * time.Second)
		if !done {
			return false
		}
		for i := 2; i < n; i++ {
			if f := net.router(wire.NodeID(i)).Stats().RREQForwarded; f > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRouteTableSeqMonotoneProperty: after any sequence of updates, the
// installed sequence number for a destination never decreases while the
// entry stays live.
func TestRouteTableSeqMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := newTable()
		const dest = wire.NodeID(5)
		var lastSeq wire.SeqNum
		now := time.Duration(0)
		for i := 0; i < 100; i++ {
			seq := wire.SeqNum(r.Intn(50))
			tbl.update(dest, wire.NodeID(r.Intn(4)+10), uint8(r.Intn(8)), seq, now, now+10*time.Second)
			route, ok := tbl.lookup(dest, now)
			if !ok {
				return false
			}
			if route.Seq < lastSeq {
				return false
			}
			lastSeq = route.Seq
			now += time.Duration(r.Intn(100)) * time.Millisecond
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestExpiredEntryAlwaysReplaceableProperty: RFC 3561 — once an entry
// lapses, any fresh information installs, however low its sequence number.
func TestExpiredEntryAlwaysReplaceableProperty(t *testing.T) {
	prop := func(oldSeq, newSeq uint16, hops uint8) bool {
		tbl := newTable()
		const dest = wire.NodeID(5)
		tbl.update(dest, 10, 3, wire.SeqNum(oldSeq), 0, time.Second)
		// Past expiry, the low-seq candidate must win.
		changed := tbl.update(dest, 11, hops, wire.SeqNum(newSeq), 2*time.Second, 12*time.Second)
		if !changed {
			return false
		}
		route, ok := tbl.lookup(dest, 2*time.Second)
		return ok && route.NextHop == 11 && route.Seq == wire.SeqNum(newSeq)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAdoptRouteOverridesFresherEntry(t *testing.T) {
	net := newTestNet(t, 0, 900)
	r := net.router(1)
	r.InstallRoute(5, 2, 1)
	// Poison with an absurdly fresh entry via a direct table write.
	r.table.update(5, 3, 1, 10_000, 0, time.Hour)
	r.AdoptRoute(5, 2, 1, 7)
	route, ok := r.RouteTo(5)
	if !ok || route.NextHop != 2 || route.Seq != 7 {
		t.Errorf("adopted route = %+v, want pinned via 2 seq 7", route)
	}
}

func TestPurgeNodeRemovesAllState(t *testing.T) {
	net := newTestNet(t, 0, 900)
	r := net.router(1)
	r.InstallRoute(5, 66, 1)  // route THROUGH the attacker
	r.InstallRoute(66, 66, 1) // route TO the attacker
	r.table.heard(66, 0)
	broken := 0
	r.cb.RouteBroken = func(wire.NodeID) { broken++ }
	r.PurgeNode(66)
	if _, ok := r.RouteTo(5); ok {
		t.Error("route via the purged node survived")
	}
	if _, ok := r.RouteTo(66); ok {
		t.Error("route to the purged node survived")
	}
	if broken != 1 {
		t.Errorf("RouteBroken fired %d times, want 1 (the via-route)", broken)
	}
	for _, n := range r.Neighbors() {
		if n == 66 {
			t.Error("purged node still a neighbour")
		}
	}
}

func TestLinkFailureInvalidatesAndReports(t *testing.T) {
	net := newTestNet(t, 0, 900, 1800)
	net.discover(1, 3)
	// Node 2 vanishes (off-ramp): the next unicast from 1 fails its ACK,
	// the route breaks immediately (no neighbour-timeout wait), and the
	// sender returns ErrLinkFailed.
	net.ifcs[2].Detach()
	err := net.router(1).SendData(3, []byte("x"))
	if err == nil {
		t.Fatal("send over a dead link succeeded")
	}
	if _, ok := net.router(1).RouteTo(3); ok {
		t.Error("route survived the failed acknowledgement")
	}
}
