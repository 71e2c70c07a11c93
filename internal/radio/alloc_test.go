package radio

import (
	"testing"

	"blackdp/internal/mobility"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// TestAllocsBroadcastDelivery pins the steady-state broadcast path: once the
// scheduler's event pool and the medium's delivery free list are warm, a
// broadcast to several in-range receivers plus the drain of its deliveries
// must not allocate per frame: no per-copy closures or records, and the live
// channel counters tally kinds in fixed arrays, so counting allocates nothing.
func TestAllocsBroadcastDelivery(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	h, err := mobility.NewHighway(10_000, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	sink := func(Frame) {}
	tx := m.Attach(1, fixed(h, 0, 100), sink)
	for i := 2; i <= 6; i++ {
		m.Attach(wire.NodeID(i), fixed(h, float64(i)*50, 100), sink)
	}
	hello := &wire.Hello{Origin: 1}
	buf, err := hello.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools: first rounds populate the free lists.
	for i := 0; i < 8; i++ {
		tx.Send(wire.Broadcast, buf)
		s.Run()
	}
	got := testing.AllocsPerRun(200, func() {
		tx.Send(wire.Broadcast, buf)
		s.Run()
	})
	if got > 0 {
		t.Errorf("broadcast+deliver to 5 receivers: %.1f allocs/op, budget 0", got)
	}
	if err := m.Stats().CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendNeighborsReusesBuffer checks the scratch-buffer variant returns
// the same set as Neighbors and does not allocate once the buffer has grown.
func TestAppendNeighborsReusesBuffer(t *testing.T) {
	h, err := mobility.NewHighway(10_000, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	sink := func(Frame) {}
	ifc := m.Attach(1, fixed(h, 0, 100), sink)
	for i := 2; i <= 5; i++ {
		m.Attach(wire.NodeID(i), fixed(h, float64(i)*100, 100), sink)
	}
	want := ifc.Neighbors()
	scratch := ifc.AppendNeighbors(nil)
	if len(want) != 4 || len(scratch) != len(want) {
		t.Fatalf("AppendNeighbors = %v, Neighbors = %v", scratch, want)
	}
	for i := range want {
		if scratch[i] != want[i] {
			t.Fatalf("AppendNeighbors = %v, Neighbors = %v", scratch, want)
		}
	}
	if sim.RaceEnabled {
		return
	}
	got := testing.AllocsPerRun(100, func() {
		scratch = ifc.AppendNeighbors(scratch[:0])
	})
	if got > 0 {
		t.Errorf("AppendNeighbors with warm scratch: %.1f allocs/op, budget 0", got)
	}
}
