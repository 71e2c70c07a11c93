package radio

import (
	"reflect"
	"testing"
	"time"

	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// kindPayload returns a payload of n bytes whose kind byte is k.
func kindPayload(k wire.Kind, n int) []byte {
	b := make([]byte, n)
	b[0] = byte(k)
	return b
}

// wantCounter checks a snapshot counter against its expected frames, bytes
// and per-kind map. A nil want map means no kind was ever counted, which the
// snapshot must report as a nil ByKind, as the map-backed counters did.
func wantCounter(t *testing.T, name string, got Counter, frames, bytes uint64, byKind map[wire.Kind]uint64) {
	t.Helper()
	if got.Frames != frames || got.Bytes != bytes {
		t.Errorf("%s: %d frames / %d bytes, want %d / %d", name, got.Frames, got.Bytes, frames, bytes)
	}
	if !reflect.DeepEqual(got.ByKind, byKind) {
		t.Errorf("%s: ByKind = %v, want %v", name, got.ByKind, byKind)
	}
}

// TestStatsSnapshotShardedSums drives a two-shard medium and checks that
// Medium.Stats folds the per-shard counters into the same per-kind maps the
// map-backed counters produced: kinds summed across shards, an unknown kind
// byte (0xFF) counted like any other, empty payloads counted in frames but
// never by kind, and kinds never seen absent from the map.
func TestStatsSnapshotShardedSums(t *testing.T) {
	h := testHighway(t)
	x := sim.NewSharded(20*time.Microsecond, 2, 1)
	m := NewMedium(sim.NewScheduler(), sim.NewRNG(1))
	var ports []*Shard
	for i := 0; i < x.Shards(); i++ {
		ports = append(ports, m.AddShard(x.Shard(i), x.Shard(i), sim.NewRNG(int64(10+i))))
	}
	x.OnWindow(func(_, we time.Duration) { m.RefreshIndex(we) })
	sink := func(Frame) {}
	// Devices 1-3 are mutual neighbours across the shard boundary; 4 and 5
	// sit far down the road on shard 1 only, so their zero-airtime empty
	// frame never crosses shards.
	d1 := m.AttachOn(ports[0], 1, fixed(h, 0, 100), sink)
	d2 := m.AttachOn(ports[0], 2, fixed(h, 100, 100), sink)
	d3 := m.AttachOn(ports[1], 3, fixed(h, 200, 100), sink)
	d4 := m.AttachOn(ports[1], 4, fixed(h, 8000, 100), sink)
	m.AttachOn(ports[1], 5, fixed(h, 8100, 100), sink)

	hello := kindPayload(wire.KindHello, 40)
	rreq := kindPayload(wire.KindRREQ, 60)
	unknown := kindPayload(wire.Kind(0xFF), 50)
	ms := time.Millisecond
	x.Shard(0).At(1*ms, func() { d1.Send(wire.Broadcast, hello) })   // -> 2 (shard 0), 3 (shard 1)
	x.Shard(1).At(2*ms, func() { d3.Send(1, rreq) })                 // shard 1 -> shard 0
	x.Shard(1).At(3*ms, func() { d4.Send(wire.Broadcast, unknown) }) // -> 5
	x.Shard(1).At(4*ms, func() { d4.Send(wire.Broadcast, nil) })     // -> 5, no kind
	x.Shard(0).At(5*ms, func() {
		d2.SetSilenced(true)
		d2.Send(wire.Broadcast, hello) // suppressed: counted by kind, zero bytes
	})
	x.RunUntil(20 * ms)

	st := m.Stats()
	wantCounter(t, "sent", st.SentFrames, 4, 150,
		map[wire.Kind]uint64{wire.KindHello: 1, wire.KindRREQ: 1, 0xFF: 1})
	delivered := map[wire.Kind]uint64{wire.KindHello: 2, wire.KindRREQ: 1, 0xFF: 1}
	wantCounter(t, "delivered", st.DeliveredFrames, 5, 190, delivered)
	wantCounter(t, "offered", st.OfferedFrames, 5, 190, delivered)
	wantCounter(t, "suppressed", st.SuppressedFrames, 1, 0, map[wire.Kind]uint64{wire.KindHello: 1})
	wantCounter(t, "lost", st.LostFrames, 0, 0, nil)
	wantCounter(t, "duplicated", st.DuplicatedFrames, 0, 0, nil)
	wantCounter(t, "unacked", st.UnackedFrames, 0, 0, nil)
	if st.InFlightFrames != 0 {
		t.Errorf("in flight = %d after drain, want 0", st.InFlightFrames)
	}
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// Each shard saw one Hello delivery; only the fold makes it two.
	for i, c := range ports {
		if n := c.stats.delivered.byKind[wire.KindHello]; n != 1 {
			t.Errorf("shard %d delivered %d Hello copies, want 1", i, n)
		}
	}
}

// TestBackboneStatsSnapshot checks the backbone's folded snapshot: per-kind
// maps match the map-backed semantics, and a snapshot neither aliases the
// live counters nor a later snapshot.
func TestBackboneStatsSnapshot(t *testing.T) {
	s := sim.NewScheduler()
	b := NewBackbone(s, time.Millisecond)
	a, err := b.Attach(1, 0, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Attach(2, 3, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{kindPayload(wire.KindDetectReq, 30), kindPayload(0xFF, 20), nil} {
		if err := a.Send(2, p); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	snap := b.Stats()
	want := map[wire.Kind]uint64{wire.KindDetectReq: 1, 0xFF: 1}
	wantCounter(t, "sent", snap.SentFrames, 3, 50, want)
	wantCounter(t, "delivered", snap.DeliveredFrames, 3, 50, want)
	wantCounter(t, "lost", snap.LostFrames, 0, 0, nil)

	if err := a.Send(2, kindPayload(wire.KindDetectReq, 30)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	snap.DeliveredFrames.ByKind[wire.KindRREQ] = 99 // a snapshot is the caller's to mutate
	next := b.Stats()
	wantCounter(t, "old snapshot", snap.SentFrames, 3, 50, want)
	wantCounter(t, "new snapshot", next.DeliveredFrames, 4, 80,
		map[wire.Kind]uint64{wire.KindDetectReq: 2, 0xFF: 1})
}
