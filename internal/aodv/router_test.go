package aodv

import (
	"slices"
	"testing"
	"time"

	"blackdp/internal/mobility"
	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// testNet is a line topology of routers on a highway, spaced so only
// adjacent nodes are in radio range.
type testNet struct {
	t       testing.TB
	sched   *sim.Scheduler
	medium  *radio.Medium
	routers map[wire.NodeID]*Router
	ifcs    map[wire.NodeID]*radio.Interface
}

// newTestNet places len(xs) routers with NodeIDs 1..n at the given X
// coordinates on a 10 km highway with the paper's 1000 m range.
func newTestNet(t testing.TB, xs ...float64) *testNet {
	t.Helper()
	h, err := mobility.NewHighway(10_000, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	rng := sim.NewRNG(42)
	net := &testNet{
		t:       t,
		sched:   sched,
		medium:  radio.NewMedium(sched, rng.Split("radio")),
		routers: make(map[wire.NodeID]*Router),
		ifcs:    make(map[wire.NodeID]*radio.Interface),
	}
	for i, x := range xs {
		id := wire.NodeID(i + 1)
		loc := mobility.Static{Pos: mobility.Position{X: x, Y: 100}, H: h}
		var router *Router
		ifc := net.medium.Attach(id, loc, func(f radio.Frame) { router.HandleFrame(f) })
		router = New(sched, rng.Split(id.String()), ifc, nil, Callbacks{})
		router.Start()
		net.routers[id] = router
		net.ifcs[id] = ifc
	}
	return net
}

func (n *testNet) router(id wire.NodeID) *Router { return n.routers[id] }

// discover runs a discovery from src to dst and returns the result after the
// network quiesces.
func (n *testNet) discover(src, dst wire.NodeID, opts ...DiscoverOption) DiscoverResult {
	n.t.Helper()
	var got *DiscoverResult
	err := n.router(src).Discover(dst, func(res DiscoverResult) { got = &res }, opts...)
	if err != nil {
		n.t.Fatalf("Discover: %v", err)
	}
	n.sched.RunFor(10 * time.Second)
	if got == nil {
		n.t.Fatal("discovery callback never fired")
	}
	return *got
}

func TestDiscoveryOverMultipleHops(t *testing.T) {
	// 1 - 2 - 3 - 4, adjacent spacing 900m, range 1000m.
	net := newTestNet(t, 0, 900, 1800, 2700)
	res := net.discover(1, 4)
	if res.Best == nil {
		t.Fatal("no route found over 3 hops")
	}
	if res.Best.RREP.Issuer != 4 {
		t.Errorf("best reply issued by %v, want destination 4", res.Best.RREP.Issuer)
	}
	route, ok := net.router(1).RouteTo(4)
	if !ok {
		t.Fatal("no route installed after discovery")
	}
	if route.NextHop != 2 {
		t.Errorf("next hop = %v, want 2", route.NextHop)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", res.Attempts)
	}
}

func TestDiscoveryUnreachableRetriesThenFails(t *testing.T) {
	// Node 3 is beyond every radio horizon from 1 and 2.
	net := newTestNet(t, 0, 900, 5000)
	res := net.discover(1, 3)
	if res.Best != nil {
		t.Fatalf("found a route to an unreachable node: %+v", res.Best)
	}
	wantAttempts := retries + 1
	if res.Attempts != wantAttempts {
		t.Errorf("attempts = %d, want %d", res.Attempts, wantAttempts)
	}
}

func TestDataDeliveryEndToEnd(t *testing.T) {
	net := newTestNet(t, 0, 900, 1800, 2700)
	var delivered []*wire.Data
	net.router(4).cb.DataReceived = func(d *wire.Data, from wire.NodeID) {
		delivered = append(delivered, d)
	}
	net.discover(1, 4)
	if err := net.router(1).SendData(4, []byte("congestion at exit 12")); err != nil {
		t.Fatalf("SendData: %v", err)
	}
	net.sched.RunFor(time.Second)
	if len(delivered) != 1 {
		t.Fatalf("delivered %d data packets, want 1", len(delivered))
	}
	if string(delivered[0].Payload) != "congestion at exit 12" {
		t.Errorf("payload = %q", delivered[0].Payload)
	}
	if net.router(2).Stats().DataForwarded != 1 || net.router(3).Stats().DataForwarded != 1 {
		t.Error("intermediates did not forward the data packet")
	}
}

func TestSendDataWithoutRoute(t *testing.T) {
	net := newTestNet(t, 0, 900)
	if err := net.router(1).SendData(2, []byte("x")); err == nil {
		t.Error("SendData without a route succeeded")
	}
}

func TestIntermediateReplyFromCachedRoute(t *testing.T) {
	net := newTestNet(t, 0, 900, 1800, 2700)
	// Prime node 2 with a route to 4 (via a first discovery from 2).
	net.discover(2, 4)
	seqAt2, _ := net.router(2).RouteTo(4)
	if seqAt2.Seq == 0 {
		t.Fatal("cached route has zero seq; cannot test intermediate reply")
	}
	// Now 1 discovers 4: node 2 should answer from cache.
	res := net.discover(1, 4)
	if res.Best == nil {
		t.Fatal("no route found")
	}
	var fromIntermediate bool
	for _, c := range res.Candidates {
		if c.RREP.Issuer == 2 && c.RREP.Dest == 4 {
			fromIntermediate = true
		}
	}
	if !fromIntermediate {
		t.Errorf("no intermediate reply from node 2; candidates: %+v", res.Candidates)
	}
}

func TestMinDestSeqSuppressesStaleIntermediateReply(t *testing.T) {
	net := newTestNet(t, 0, 900, 1800, 2700)
	net.discover(2, 4)
	route, _ := net.router(2).RouteTo(4)
	// Demand freshness beyond node 2's cache: only the destination itself
	// may answer.
	res := net.discover(1, 4, WithMinDestSeq(route.Seq+100))
	if res.Best == nil {
		t.Fatal("no route found")
	}
	for _, c := range res.Candidates {
		if c.RREP.Issuer == 2 {
			t.Errorf("stale intermediate replied despite MinDestSeq: %+v", c.RREP)
		}
	}
	if res.Best.RREP.DestSeq < route.Seq+100 {
		t.Errorf("best reply seq %d below demanded %d", res.Best.RREP.DestSeq, route.Seq+100)
	}
}

func TestNextHopInquiry(t *testing.T) {
	net := newTestNet(t, 0, 900, 1800, 2700)
	net.discover(2, 4)
	res := net.discover(1, 4, WithNextHopInquiry())
	var answered bool
	for _, c := range res.Candidates {
		if c.RREP.Issuer == 2 {
			answered = true
			if c.RREP.NextHop != 3 {
				t.Errorf("intermediate named next hop %v, want 3", c.RREP.NextHop)
			}
		}
	}
	if !answered {
		t.Skip("intermediate did not answer first; destination reply won the cache race")
	}
}

func TestDuplicateFloodSuppression(t *testing.T) {
	// Dense cluster: everyone hears everyone.
	net := newTestNet(t, 0, 100, 200, 300, 400)
	net.discover(1, 5)
	for id := wire.NodeID(2); id <= 4; id++ {
		if f := net.router(id).Stats().RREQForwarded; f > 1 {
			t.Errorf("node %v forwarded the flood %d times, want <=1", id, f)
		}
	}
}

func TestTTLBoundsFlood(t *testing.T) {
	net := newTestNet(t, 0, 900, 1800, 2700)
	res := net.discover(1, 4, WithTTL(2))
	// TTL 2: RREQ reaches node 2 (TTL 2), rebroadcast reaches 3 with TTL 1,
	// which must not rebroadcast; node 4 never hears it.
	if res.Best != nil {
		t.Errorf("TTL-2 flood reached a 3-hop destination: %+v", res.Best.RREP)
	}
}

func TestHelloProbeEndToEnd(t *testing.T) {
	net := newTestNet(t, 0, 900, 1800, 2700)
	net.discover(1, 4)

	var probed *wire.Hello
	net.router(4).cb.HelloProbe = func(h *wire.Hello, env *wire.Secure, from wire.NodeID) {
		cp := *h // h is only valid during the callback
		probed = &cp
		// Reply along the learned reverse route.
		rep := &wire.Hello{Origin: 4, Dest: h.Origin, Nonce: h.Nonce, Reply: true}
		b, _ := rep.MarshalBinary()
		if err := net.router(4).SendProbe(h.Origin, b); err != nil {
			t.Errorf("reply SendProbe: %v", err)
		}
	}
	var reply *wire.Hello
	net.router(1).cb.HelloProbe = func(h *wire.Hello, env *wire.Secure, from wire.NodeID) {
		if h.Reply {
			cp := *h
			reply = &cp
		}
	}

	probe := &wire.Hello{Origin: 1, Dest: 4, Nonce: 77}
	b, _ := probe.MarshalBinary()
	if err := net.router(1).SendProbe(4, b); err != nil {
		t.Fatalf("SendProbe: %v", err)
	}
	net.sched.RunFor(time.Second)
	if probed == nil || probed.Nonce != 77 {
		t.Fatalf("probe did not reach the destination: %+v", probed)
	}
	if reply == nil || reply.Nonce != 77 {
		t.Fatalf("probe reply did not return: %+v", reply)
	}
}

func TestNeighborTimeoutBreaksRoutesAndSendsRERR(t *testing.T) {
	net := newTestNet(t, 0, 900, 1800, 2700)
	net.discover(1, 4)
	if _, ok := net.router(1).RouteTo(4); !ok {
		t.Fatal("no route installed")
	}
	var broken []wire.NodeID
	net.router(1).cb.RouteBroken = func(d wire.NodeID) { broken = append(broken, d) }

	// Node 2 goes dark: its neighbours stop hearing beacons.
	net.ifcs[2].SetSilenced(true)
	net.sched.RunFor(neighborTimeout + 2*time.Second)

	if _, ok := net.router(1).RouteTo(4); ok {
		t.Error("route via the dead neighbour still valid")
	}
	found := false
	for _, d := range broken {
		if d == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("RouteBroken not fired for 4; got %v", broken)
	}
	if net.router(1).Stats().RERRSent == 0 {
		t.Error("no RERR sent after neighbour loss")
	}
}

func TestRERRPropagates(t *testing.T) {
	net := newTestNet(t, 0, 900, 1800, 2700)
	net.discover(1, 4)
	// All of 1,2,3 should now have routes toward 4. Kill node 3; node 2
	// times it out and RERRs; node 1 must invalidate too.
	net.ifcs[3].SetSilenced(true)
	net.sched.RunFor(neighborTimeout + 3*time.Second)
	if _, ok := net.router(1).RouteTo(4); ok {
		t.Error("node 1 still has a route to 4 after upstream break")
	}
}

func TestDataToBrokenRouteEmitsRERR(t *testing.T) {
	net := newTestNet(t, 0, 900, 1800, 2700)
	net.discover(1, 4)
	// Invalidate node 2's route to 4 directly (as if it expired).
	net.router(2).table.invalidate(4)
	if err := net.router(1).SendData(4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	net.sched.RunFor(time.Second)
	st := net.router(2).Stats()
	if st.DataDropped != 1 {
		t.Errorf("DataDropped = %d, want 1", st.DataDropped)
	}
	if st.RERRSent == 0 {
		t.Error("no RERR after dropping data")
	}
}

func TestHelloBeaconsMaintainNeighbors(t *testing.T) {
	net := newTestNet(t, 0, 900)
	net.sched.RunFor(5 * time.Second)
	n1 := net.router(1).Neighbors()
	if len(n1) != 1 || n1[0] != 2 {
		t.Errorf("Neighbors() = %v, want [2]", n1)
	}
	if net.router(1).Stats().BeaconsSent == 0 {
		t.Error("no beacons sent")
	}
}

func TestSequenceNumberMonotonic(t *testing.T) {
	net := newTestNet(t, 0, 900)
	before := net.router(1).SeqNum()
	net.discover(1, 2)
	after := net.router(1).SeqNum()
	if after <= before {
		t.Errorf("own seq %d -> %d; discovery must increment it", before, after)
	}
}

func TestDestinationHonoursDemandedFreshness(t *testing.T) {
	net := newTestNet(t, 0, 900)
	res := net.discover(1, 2, WithMinDestSeq(500))
	if res.Best == nil {
		t.Fatal("no reply")
	}
	if res.Best.RREP.DestSeq <= 500 {
		t.Errorf("destination replied with seq %d, want > 500", res.Best.RREP.DestSeq)
	}
}

func TestDiscoverValidation(t *testing.T) {
	net := newTestNet(t, 0, 900)
	r := net.router(1)
	if err := r.Discover(1, func(DiscoverResult) {}); err == nil {
		t.Error("self-discovery accepted")
	}
	if err := r.Discover(wire.Broadcast, func(DiscoverResult) {}); err == nil {
		t.Error("broadcast discovery accepted")
	}
	if err := r.Discover(2, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestStoppedRouterRefusesWork(t *testing.T) {
	net := newTestNet(t, 0, 900)
	r := net.router(1)
	r.Stop()
	if err := r.Discover(2, func(DiscoverResult) {}); err != ErrStopped {
		t.Errorf("Discover on stopped router error = %v, want ErrStopped", err)
	}
	if err := r.SendData(2, nil); err != ErrStopped {
		t.Errorf("SendData on stopped router error = %v, want ErrStopped", err)
	}
	// Frames are ignored without panicking.
	r.HandleFrame(radio.Frame{From: 2, Payload: []byte{byte(wire.KindHello)}})
}

func TestCorruptFramesIgnored(t *testing.T) {
	net := newTestNet(t, 0, 900)
	r := net.router(1)
	r.HandleFrame(radio.Frame{From: 2, Payload: nil})
	r.HandleFrame(radio.Frame{From: 2, Payload: []byte{0xff, 1, 2}})
	r.HandleFrame(radio.Frame{From: 2, Payload: []byte{byte(wire.KindRREQ), 1}}) // truncated
}

func TestRouteTableFreshness(t *testing.T) {
	tbl := newTable()
	now := time.Duration(0)
	exp := 10 * time.Second
	if !tbl.update(5, 2, 3, 10, now, exp) {
		t.Fatal("initial install rejected")
	}
	if tbl.update(5, 3, 5, 9, now, exp) {
		t.Error("stale seq replaced a fresher route")
	}
	if !tbl.update(5, 3, 2, 10, now, exp) {
		t.Error("equal-seq shorter route rejected")
	}
	if !tbl.update(5, 4, 9, 11, now, exp) {
		t.Error("higher-seq longer route rejected")
	}
	r, ok := tbl.lookup(5, now)
	if !ok || r.NextHop != 4 || r.Seq != 11 {
		t.Errorf("final route = %+v", r)
	}
	// Expiry honoured.
	if _, ok := tbl.lookup(5, exp+1); ok {
		t.Error("expired route returned")
	}
}

func TestRouteTableInvalidateVia(t *testing.T) {
	tbl := newTable()
	exp := 10 * time.Second
	tbl.update(5, 2, 1, 1, 0, exp)
	tbl.update(6, 2, 1, 1, 0, exp)
	tbl.update(7, 3, 1, 1, 0, exp)
	broken := tbl.invalidateVia(2)
	if len(broken) != 2 {
		t.Errorf("invalidateVia broke %d routes, want 2", len(broken))
	}
	if _, ok := tbl.lookup(7, 0); !ok {
		t.Error("unrelated route invalidated")
	}
}

// TestRouteTableOrdersByID holds the table's map-backed sweeps to ascending
// ID order: broken routes feed RERRs and RouteBroken callbacks, stale
// neighbours feed invalidateVia, and neither may follow map iteration.
// Twenty rounds over ten entries make a map-ordered result near-certain to
// show up.
func TestRouteTableOrdersByID(t *testing.T) {
	for round := 0; round < 20; round++ {
		tbl := newTable()
		for id := wire.NodeID(40); id > 30; id-- {
			tbl.update(id, 2, 1, 1, 0, time.Minute)
			tbl.heard(id, 0)
		}
		broken := tbl.invalidateVia(2)
		if len(broken) != 10 {
			t.Fatalf("round %d: invalidateVia broke %d routes, want 10", round, len(broken))
		}
		for i := 1; i < len(broken); i++ {
			if broken[i-1].Dest >= broken[i].Dest {
				t.Fatalf("round %d: broken routes out of order: %v", round, broken)
			}
		}
		stale := tbl.appendStale([]wire.NodeID{99}, time.Minute, time.Second)
		if len(stale) != 11 || stale[0] != 99 {
			t.Fatalf("round %d: appendStale = %v, want the 99 prefix and 10 neighbours", round, stale)
		}
		for i := 2; i < len(stale); i++ {
			if stale[i-1] >= stale[i] {
				t.Fatalf("round %d: stale neighbours out of order: %v", round, stale[1:])
			}
		}
	}
}

// TestNeighborsOrderedByID holds Router.Neighbors to ascending ID order
// rather than map iteration order, over twenty fresh tables.
func TestNeighborsOrderedByID(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := &Router{table: newTable()}
		for id := wire.NodeID(40); id > 30; id-- {
			r.table.heard(id, 0)
		}
		got := r.Neighbors()
		if len(got) != 10 {
			t.Fatalf("round %d: %d neighbours, want 10", round, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("round %d: neighbours out of order: %v", round, got)
			}
		}
	}
}

// TestStaleScanSkipsOnlyFreshTables holds appendStale's skip to a full
// scan's answer: a round skipped while every neighbour is fresh finds
// nothing a scan would, the bound tracks the survivors after each scan, and
// a neighbour heard into an emptied table is still expired on time.
func TestStaleScanSkipsOnlyFreshTables(t *testing.T) {
	const timeout = 5 * time.Second
	tbl := newTable()
	tbl.heard(1, 0)
	tbl.heard(2, 3*time.Second)
	tbl.heard(1, 4*time.Second) // 1 refreshed: 2 is now the oldest
	steps := []struct {
		now  time.Duration
		want []wire.NodeID
	}{
		{4 * time.Second, nil},
		{7 * time.Second, nil},
		{8 * time.Second, []wire.NodeID{2}},
		{8500 * time.Millisecond, nil},
		{9 * time.Second, []wire.NodeID{1}},
		{20 * time.Second, nil},
	}
	for _, s := range steps {
		if got := tbl.appendStale(nil, s.now, timeout); !slices.Equal(got, s.want) {
			t.Fatalf("appendStale at %v = %v, want %v", s.now, got, s.want)
		}
	}
	tbl.heard(3, 21*time.Second)
	if got := tbl.appendStale(nil, 26*time.Second, timeout); !slices.Equal(got, []wire.NodeID{3}) {
		t.Fatalf("neighbour heard into an empty table: appendStale = %v, want [3]", got)
	}
}

// TestFloodCacheExpiresInOrder holds the flood cache to its TTL: an entry
// is a duplicate until floodTTL after it was first seen, then forgotten.
func TestFloodCacheExpiresInOrder(t *testing.T) {
	const ttl = 5 * time.Second
	tbl := newTable()
	tbl.seenFlood(1, 1, 0)
	tbl.seenFlood(1, 2, 2*time.Second)
	tbl.seenFlood(1, 1, 3*time.Second) // duplicate: keeps its first-seen time
	tbl.prune(4*time.Second, ttl)
	if !tbl.seenFlood(1, 1, 4*time.Second) {
		t.Fatal("flood (1,1) forgotten before its TTL")
	}
	tbl.prune(5*time.Second, ttl)
	if tbl.seenFlood(1, 1, 5*time.Second) {
		t.Fatal("flood (1,1) still cached at its TTL")
	}
	if !tbl.seenFlood(1, 2, 5*time.Second) {
		t.Fatal("flood (1,2) forgotten before its TTL")
	}
	tbl.prune(time.Minute, ttl)
	if len(tbl.floods) != 0 || len(tbl.floodLog) != 0 {
		t.Fatalf("after every TTL: %d floods, %d log entries", len(tbl.floods), len(tbl.floodLog))
	}
}
