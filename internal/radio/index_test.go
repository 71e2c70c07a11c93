package radio

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"blackdp/internal/mobility"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// bruteNeighbors is the reference neighbor resolution: a scan over every
// attached device with the exact boundary-inclusive unit-disk test — the
// set the grid index must reproduce verbatim, in attach order.
func bruteNeighbors(m *Medium, probe *Interface, now time.Duration) []wire.NodeID {
	src, active := probe.locate(now)
	if !active {
		return nil
	}
	var out []wire.NodeID
	for _, dev := range m.devices {
		if dev == probe {
			continue
		}
		if pos, active := dev.locate(now); active && src.DistanceTo(pos) <= m.txRange {
			out = append(out, dev.id)
		}
	}
	return out
}

// assertIndexMatchesBrute compares every device's indexed neighbor set
// against the brute-force scan.
func assertIndexMatchesBrute(t *testing.T, m *Medium, now time.Duration, tag string) {
	t.Helper()
	var buf []wire.NodeID
	for _, probe := range m.devices {
		if probe.detached {
			continue
		}
		got := probe.AppendNeighbors(buf[:0])
		want := bruteNeighbors(m, probe, now)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: device %v (seq %d): indexed neighbors %v != brute force %v",
				tag, probe.id, probe.seq, got, want)
		}
		buf = got
	}
}

// TestCellIndexBoundaryPositions parks statics at the adversarial spots the
// 9-cell sweep could get wrong — exactly txRange apart (the paper's
// boundary-inclusive reach), exactly on cell edges and corners, at negative
// and far-out-of-world coordinates — and requires the indexed neighbor set
// to equal the brute-force unit-disk set for every device.
func TestCellIndexBoundaryPositions(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1)) // default 1000 m range = cell size
	coords := []mobility.Position{
		{X: 0, Y: 0},         // cell corner
		{X: 1000, Y: 0},      // exactly one range away, on a cell edge
		{X: 1000.0001, Y: 0}, // just beyond
		{X: 2000, Y: 0},      // exactly in range of the boundary node
		{X: 999.9999, Y: 0},  // just inside, same cell edge
		{X: 1000, Y: 1000},   // corner: sqrt(2)*1000 from origin, out of range
		{X: 600, Y: 800},     // exactly 1000 from origin, mid-cell
		{X: -1000, Y: 0},     // negative coordinates, exactly in range
		{X: -0.0001, Y: -0.0001},
		{X: 5e8, Y: -5e8},     // far out of world
		{X: 1e300, Y: 1e300},  // astronomical (exercises the cell clamp)
		{X: -1e300, Y: 1e300}, // astronomical, other sign
		{X: 3000, Y: 100},
		{X: 500, Y: 100},
	}
	for i, p := range coords {
		m.Attach(wire.NodeID(i+1), mobility.Static{Pos: p, H: h}, func(Frame) {})
	}
	assertIndexMatchesBrute(t, m, s.Now(), "t=0")
	s.RunFor(10 * time.Second) // statics never re-bucket; must still hold
	assertIndexMatchesBrute(t, m, s.Now(), "t=10s")
}

// TestCellIndexUnderMotion drives a churning population — vehicles crossing
// cell boundaries, changing speed, fleeing the road, detaching, renaming and
// silencing — and holds the indexed neighbor sets equal to brute force at
// every tick. This is the property the incremental re-bucketing heap must
// never violate: a bucket one cell stale turns into a missed receiver at
// exactly the range boundary.
func TestCellIndexUnderMotion(t *testing.T) {
	h := testHighway(t)
	s := sim.NewScheduler()
	m := NewMedium(s, sim.NewRNG(1))
	rng := rand.New(rand.NewSource(99))

	var mobiles []*mobility.Mobile
	next := wire.NodeID(1)
	for i := 0; i < 40; i++ {
		dir := mobility.Eastbound
		if rng.Intn(2) == 0 {
			dir = mobility.Westbound
		}
		start := mobility.Position{X: rng.Float64() * 10_000, Y: 20 + 40*float64(rng.Intn(4))}
		mob, err := mobility.NewMobileOnRoad(h, h.Roads()[0], start, dir, 10+rng.Float64()*30, s.Now())
		if err != nil {
			t.Fatal(err)
		}
		mobiles = append(mobiles, mob)
		m.Attach(next, mob, func(Frame) {})
		next++
	}
	// Statics parked on exact cell edges among the traffic.
	for _, x := range []float64{0, 1000, 2000, 5000, 10_000} {
		m.Attach(next, mobility.Static{Pos: mobility.Position{X: x, Y: 0}, H: h}, func(Frame) {})
		next++
	}

	for tick := 0; tick < 120; tick++ {
		s.RunFor(2 * time.Second)
		now := s.Now()
		// Churn: trajectory changes must dirty the index, not corrupt it.
		switch tick % 8 {
		case 1:
			mob := mobiles[rng.Intn(len(mobiles))]
			if !mob.Exited() {
				if err := mob.SetSpeed(now, 1+rng.Float64()*40); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			mobiles[rng.Intn(len(mobiles))].Exit(now)
		case 5:
			dev := m.devices[rng.Intn(len(m.devices))]
			dev.SetSilenced(!dev.silenced)
		case 7:
			dev := m.devices[rng.Intn(len(m.devices))]
			if !dev.detached {
				if rng.Intn(2) == 0 {
					dev.Detach()
				} else {
					dev.SetNodeID(next)
					next++
				}
			}
		}
		assertIndexMatchesBrute(t, m, now, "tick")
	}
}

// TestGridMatchesLinearScanScripted runs the same scripted traffic through
// two media that differ only in WithLinearScan and requires identical
// deliveries (payload, sender, receiver, arrival time) and identical channel
// stats. With loss and jitter enabled, equality also proves the RNG draw
// sequences never diverge.
func TestGridMatchesLinearScanScripted(t *testing.T) {
	type arrival struct {
		at   time.Duration
		dev  wire.NodeID
		from wire.NodeID
		kind wire.Kind
	}
	run := func(opts ...Option) ([]arrival, Stats) {
		h, err := mobility.NewHighway(10_000, 200, 1000)
		if err != nil {
			t.Fatal(err)
		}
		s := sim.NewScheduler()
		m := NewMedium(s, sim.NewRNG(7), append([]Option{WithLossRate(0.1)}, opts...)...)
		rng := rand.New(rand.NewSource(3))
		var log []arrival
		var ifcs []*Interface
		var mobiles []*mobility.Mobile
		for i := 0; i < 30; i++ {
			id := wire.NodeID(i + 1)
			start := mobility.Position{X: rng.Float64() * 10_000, Y: 20 + 40*float64(rng.Intn(4))}
			dir := mobility.Eastbound
			if rng.Intn(2) == 0 {
				dir = mobility.Westbound
			}
			mob, err := mobility.NewMobileOnRoad(h, h.Roads()[0], start, dir, 5+rng.Float64()*35, s.Now())
			if err != nil {
				t.Fatal(err)
			}
			mobiles = append(mobiles, mob)
			ifcs = append(ifcs, m.Attach(id, mob, func(f Frame) {
				log = append(log, arrival{at: s.Now(), dev: id, from: f.From, kind: f.Kind()})
			}))
		}
		hello, err := (&wire.Hello{Origin: 1}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 200; step++ {
			s.RunFor(250 * time.Millisecond)
			tx := ifcs[rng.Intn(len(ifcs))]
			if rng.Intn(3) == 0 {
				tx.Send(wire.NodeID(rng.Intn(30)+1), hello)
			} else {
				tx.Send(wire.Broadcast, hello)
			}
			switch step % 11 {
			case 4:
				mob := mobiles[rng.Intn(len(mobiles))]
				if !mob.Exited() {
					_ = mob.SetSpeed(s.Now(), 1+rng.Float64()*40)
				}
			case 8:
				mobiles[rng.Intn(len(mobiles))].Exit(s.Now())
			}
		}
		s.Run()
		return log, m.Stats()
	}
	gridLog, gridStats := run()
	linLog, linStats := run(WithLinearScan())
	if !reflect.DeepEqual(gridLog, linLog) {
		t.Fatalf("delivery logs diverged: grid %d arrivals, linear %d", len(gridLog), len(linLog))
	}
	if !reflect.DeepEqual(gridStats, linStats) {
		t.Fatalf("channel stats diverged:\n grid   %+v\n linear %+v", gridStats, linStats)
	}
}
