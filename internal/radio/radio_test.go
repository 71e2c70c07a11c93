package radio

import (
	"testing"
	"testing/quick"
	"time"

	"blackdp/internal/mobility"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

func testHighway(t *testing.T) *mobility.Highway {
	t.Helper()
	h, err := mobility.NewHighway(10_000, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

type recorder struct {
	frames []Frame
}

func (r *recorder) recv(f Frame) { r.frames = append(r.frames, f) }

func fixed(h *mobility.Highway, x, y float64) mobility.Static {
	return mobility.Static{Pos: mobility.Position{X: x, Y: y}, H: h}
}

func payload(t *testing.T, p wire.Packet) []byte {
	t.Helper()
	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBroadcastReachesOnlyInRange(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))

	var near, far, sender recorder
	tx := m.Attach(1, fixed(h, 0, 100), sender.recv)
	m.Attach(2, fixed(h, 900, 100), near.recv)
	m.Attach(3, fixed(h, 1500, 100), far.recv)

	tx.Send(wire.Broadcast, payload(t, &wire.Hello{Origin: 1}))
	s.Run()

	if len(near.frames) != 1 {
		t.Errorf("in-range node got %d frames, want 1", len(near.frames))
	}
	if len(far.frames) != 0 {
		t.Errorf("out-of-range node got %d frames, want 0", len(far.frames))
	}
	if len(sender.frames) != 0 {
		t.Errorf("sender heard its own frame %d times", len(sender.frames))
	}
	if f := near.frames[0]; f.From != 1 || f.To != wire.Broadcast || f.Kind() != wire.KindHello {
		t.Errorf("frame = %+v, want From=1 To=* kind HELLO", f)
	}
}

func TestRangeBoundaryInclusive(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	var exactly, beyond recorder
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	m.Attach(2, fixed(h, 1000, 100), exactly.recv)
	m.Attach(3, fixed(h, 1000.1, 100), beyond.recv)
	tx.Send(wire.Broadcast, payload(t, &wire.Hello{Origin: 1}))
	s.Run()
	if len(exactly.frames) != 1 {
		t.Error("node at exactly 1000m did not receive (range must be inclusive)")
	}
	if len(beyond.frames) != 0 {
		t.Error("node just past 1000m received")
	}
}

func TestUnicastAddressing(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	var to2, to3 recorder
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	m.Attach(2, fixed(h, 100, 100), to2.recv)
	m.Attach(3, fixed(h, 200, 100), to3.recv)
	tx.Send(2, payload(t, &wire.Data{Origin: 1, Dest: 2}))
	s.Run()
	if len(to2.frames) != 1 {
		t.Errorf("addressee got %d frames, want 1", len(to2.frames))
	}
	if len(to3.frames) != 0 {
		t.Errorf("bystander got %d frames, want 0", len(to3.frames))
	}
}

func TestDeliveryDelayPositiveAndOrdered(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	var got []time.Duration
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	m.Attach(2, fixed(h, 500, 100), func(Frame) { got = append(got, s.Now()) })
	pkt := payload(t, &wire.Data{Origin: 1, Dest: 2, Payload: make([]byte, 100)})
	tx.Send(2, pkt)
	tx.Send(2, pkt)
	s.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(got))
	}
	if got[0] <= 0 {
		t.Error("delivery was instantaneous; want positive delay")
	}
	// ~123 bytes at 6 Mb/s is ~164us tx delay plus <2ms jitter.
	if got[0] > 5*time.Millisecond {
		t.Errorf("delivery took %v, implausibly long", got[0])
	}
}

func TestLossRate(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(7), WithLossRate(0.5))
	var rx recorder
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	m.Attach(2, fixed(h, 100, 100), rx.recv)
	const n = 2000
	pkt := payload(t, &wire.Hello{Origin: 1})
	for i := 0; i < n; i++ {
		tx.Send(2, pkt)
	}
	s.Run()
	frac := float64(len(rx.frames)) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("delivery fraction %v with 50%% loss", frac)
	}
	st := m.Stats()
	if st.SentFrames.Frames != n {
		t.Errorf("SentFrames = %d, want %d", st.SentFrames.Frames, n)
	}
	if st.DeliveredFrames.Frames+st.LostFrames.Frames != n {
		t.Errorf("delivered %d + lost %d != sent %d",
			st.DeliveredFrames.Frames, st.LostFrames.Frames, n)
	}
}

func TestMovingReceiverUsesSendTimePositions(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	veh, err := mobility.NewMobileOnRoad(h, h.Roads()[0], mobility.Position{X: 900, Y: 100}, mobility.Eastbound, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rx recorder
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	m.Attach(2, veh, rx.recv)

	// In range at t=0.
	tx.Send(wire.Broadcast, payload(t, &wire.Hello{Origin: 1}))
	// Vehicle reaches x=1100 at t=8s: out of range.
	s.RunFor(8 * time.Second)
	tx.Send(wire.Broadcast, payload(t, &wire.Hello{Origin: 1}))
	s.Run()
	if len(rx.frames) != 1 {
		t.Errorf("moving receiver got %d frames, want 1", len(rx.frames))
	}
}

func TestDetachedAndSilencedDevices(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	var rx recorder
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	ifc := m.Attach(2, fixed(h, 100, 100), rx.recv)
	pkt := payload(t, &wire.Hello{Origin: 1})

	ifc.SetSilenced(true)
	tx.Send(2, pkt)
	s.Run()
	if len(rx.frames) != 0 {
		t.Error("silenced device received")
	}
	ifc.SetSilenced(false)
	tx.Send(2, pkt)
	s.Run()
	if len(rx.frames) != 1 {
		t.Error("unsilenced device did not receive")
	}
	ifc.Detach()
	tx.Send(2, pkt)
	s.Run()
	if len(rx.frames) != 1 {
		t.Error("detached device received")
	}

	// A detached device cannot send either.
	before := m.Stats().SentFrames.Frames
	ifc.Send(1, pkt)
	if got := m.Stats().SentFrames.Frames; got != before {
		t.Error("detached device transmitted")
	}
	if m.Stats().SuppressedFrames.Frames == 0 {
		t.Error("suppressed send not counted")
	}
}

func TestReceiverGoneAtDeliveryTimeLosesFrame(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	var rx recorder
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	ifc := m.Attach(2, fixed(h, 100, 100), rx.recv)
	tx.Send(2, payload(t, &wire.Hello{Origin: 1}))
	ifc.Detach() // before the in-flight frame lands
	s.Run()
	if len(rx.frames) != 0 {
		t.Error("frame delivered to a device that detached in flight")
	}
	if m.Stats().LostFrames.Frames != 1 {
		t.Errorf("LostFrames = %d, want 1", m.Stats().LostFrames.Frames)
	}
}

func TestSetNodeIDRetargetsUnicast(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	var rx recorder
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	ifc := m.Attach(2, fixed(h, 100, 100), rx.recv)
	pkt := payload(t, &wire.Hello{Origin: 1})

	ifc.SetNodeID(99)
	tx.Send(2, pkt) // stale pseudonym
	s.Run()
	if len(rx.frames) != 0 {
		t.Error("frame delivered to a stale pseudonym")
	}
	tx.Send(99, pkt)
	s.Run()
	if len(rx.frames) != 1 {
		t.Error("frame to the new pseudonym not delivered")
	}
	if ifc.NodeID() != 99 {
		t.Errorf("NodeID() = %v, want 99", ifc.NodeID())
	}
}

func TestNeighbors(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	a := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	m.Attach(2, fixed(h, 500, 100), func(Frame) {})
	m.Attach(3, fixed(h, 999, 100), func(Frame) {})
	m.Attach(4, fixed(h, 2000, 100), func(Frame) {})
	got := a.Neighbors()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Neighbors() = %v, want [2 3]", got)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	m.Attach(2, fixed(h, 100, 100), func(Frame) {})
	tx.Send(2, payload(t, &wire.Hello{Origin: 1}))
	s.Run()
	snap := m.Stats()
	tx.Send(2, payload(t, &wire.Hello{Origin: 1}))
	s.Run()
	if snap.SentFrames.ByKind[wire.KindHello] != 1 {
		t.Errorf("snapshot mutated by later traffic: %v", snap.SentFrames.ByKind)
	}
}

func TestAttachValidation(t *testing.T) {
	h := testHighway(t)
	m := NewMedium(sim.NewScheduler(), sim.NewRNG(1))
	for _, fn := range []func(){
		func() { m.Attach(wire.Broadcast, fixed(h, 0, 0), func(Frame) {}) },
		func() { m.Attach(1, nil, func(Frame) {}) },
		func() { m.Attach(1, fixed(h, 0, 0), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Attach did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestBroadcastSymmetryProperty: for random placements, A hears B iff B
// hears A (the paper's bidirectional-links assumption).
func TestBroadcastSymmetryProperty(t *testing.T) {
	h := testHighway(t)
	prop := func(ax, bx uint16, ay, by uint8) bool {
		s := sim.NewScheduler()
		m := NewMedium(s, sim.NewRNG(1))
		var ra, rb recorder
		pa := fixed(h, float64(ax%10_000), float64(ay%200))
		pb := fixed(h, float64(bx%10_000), float64(by%200))
		ia := m.Attach(1, pa, ra.recv)
		ib := m.Attach(2, pb, rb.recv)
		p := &wire.Hello{Origin: 1}
		b, _ := p.MarshalBinary()
		ia.Send(wire.Broadcast, b)
		ib.Send(wire.Broadcast, b)
		s.Run()
		return (len(ra.frames) == 1) == (len(rb.frames) == 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBackboneDelivery(t *testing.T) {
	s := sim.NewScheduler()
	bb := NewBackbone(s, time.Millisecond)
	var got []wire.NodeID
	var at []time.Duration
	recv := func(from wire.NodeID, payload []byte) { got = append(got, from); at = append(at, s.Now()) }
	ep1, err := bb.Attach(1001, 1, recv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bb.Attach(1005, 5, recv); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(1005, []byte{byte(wire.KindDetectReq)}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 1 || got[0] != 1001 {
		t.Fatalf("backbone delivery = %v", got)
	}
	if at[0] != 4*time.Millisecond {
		t.Errorf("4-hop latency = %v, want 4ms", at[0])
	}
}

func TestBackboneColocatedMinimumOneHop(t *testing.T) {
	s := sim.NewScheduler()
	bb := NewBackbone(s, time.Millisecond)
	var when time.Duration
	ep1, _ := bb.Attach(1, 3, func(wire.NodeID, []byte) {})
	bb.Attach(2, 3, func(wire.NodeID, []byte) { when = s.Now() })
	if err := ep1.Send(2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if when != time.Millisecond {
		t.Errorf("co-located latency = %v, want 1ms", when)
	}
}

func TestBackboneErrors(t *testing.T) {
	s := sim.NewScheduler()
	bb := NewBackbone(s, time.Millisecond)
	ep, err := bb.Attach(1, 1, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(42, []byte{1}); err == nil {
		t.Error("Send to unattached endpoint succeeded")
	}
	if _, err := bb.Attach(1, 2, func(wire.NodeID, []byte) {}); err == nil {
		t.Error("duplicate Attach succeeded")
	}
	if _, err := bb.Attach(2, 2, nil); err == nil {
		t.Error("nil receiver accepted")
	}
	if _, err := bb.Attach(wire.Broadcast, 2, func(wire.NodeID, []byte) {}); err == nil {
		t.Error("broadcast NodeID accepted")
	}
	if bb.Stats().SentFrames.Frames != 0 {
		t.Error("failed send counted")
	}
}

func TestUnicastAckSemantics(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	rx := m.Attach(2, fixed(h, 500, 100), func(Frame) {})
	far := m.Attach(3, fixed(h, 5000, 100), func(Frame) {})
	_ = far
	pkt := payload(t, &wire.Hello{Origin: 1})

	if !tx.Send(2, pkt) {
		t.Error("in-range unicast not acked")
	}
	if tx.Send(3, pkt) {
		t.Error("out-of-range unicast acked")
	}
	if tx.Send(99, pkt) {
		t.Error("unicast to an absent pseudonym acked")
	}
	rx.SetSilenced(true)
	if tx.Send(2, pkt) {
		t.Error("unicast to a silenced device acked")
	}
	rx.SetSilenced(false)
	rx.Detach()
	if tx.Send(2, pkt) {
		t.Error("unicast to a detached device acked")
	}
	// Broadcasts are unacknowledged and always report true.
	if !tx.Send(wire.Broadcast, pkt) {
		t.Error("broadcast reported false")
	}
	st := m.Stats()
	if st.UnackedFrames.Frames != 4 {
		t.Errorf("UnackedFrames = %d, want 4", st.UnackedFrames.Frames)
	}
}

func TestLossyUnicastAckReflectsLoss(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(5), WithLossRate(0.5))
	tx := m.Attach(1, fixed(h, 0, 100), func(Frame) {})
	delivered := 0
	m.Attach(2, fixed(h, 100, 100), func(Frame) { delivered++ })
	pkt := payload(t, &wire.Hello{Origin: 1})
	acked := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if tx.Send(2, pkt) {
			acked++
		}
	}
	s.Run()
	if acked != delivered {
		t.Errorf("acked %d but delivered %d: the ACK must track the loss draw", acked, delivered)
	}
	if acked < 400 || acked > 600 {
		t.Errorf("acked %d/%d at 50%% loss", acked, n)
	}
}

func TestFrameKindEmptyPayload(t *testing.T) {
	var f Frame
	if f.Kind().Valid() {
		t.Error("empty frame reports a valid kind")
	}
}
