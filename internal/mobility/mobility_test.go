package mobility

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func tableIHighway(t *testing.T) *Highway {
	t.Helper()
	h, err := NewHighway(10_000, 200, 1000)
	if err != nil {
		t.Fatalf("NewHighway: %v", err)
	}
	return h
}

func TestKmhToMs(t *testing.T) {
	if got := KmhToMs(90); math.Abs(got-25.0) > 1e-9 {
		t.Errorf("KmhToMs(90) = %v, want 25", got)
	}
	if got := MsToKmh(KmhToMs(72)); math.Abs(got-72) > 1e-9 {
		t.Errorf("round trip = %v, want 72", got)
	}
}

func TestNewHighwayValidation(t *testing.T) {
	tests := []struct {
		name                      string
		length, width, clusterLen float64
		wantErr                   bool
	}{
		{"table I", 10_000, 200, 1000, false},
		{"single cluster", 1000, 200, 1000, false},
		{"zero length", 0, 200, 1000, true},
		{"negative width", 10_000, -1, 1000, true},
		{"zero cluster", 10_000, 200, 0, true},
		{"non-multiple", 10_500, 200, 1000, true},
		{"shorter than cluster", 500, 200, 1000, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewHighway(tt.length, tt.width, tt.clusterLen)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewHighway(%v, %v, %v) error = %v, wantErr %v",
					tt.length, tt.width, tt.clusterLen, err, tt.wantErr)
			}
		})
	}
}

func TestHighwayClusterCount(t *testing.T) {
	h := tableIHighway(t)
	if h.Clusters() != 10 {
		t.Errorf("Clusters() = %d, want 10 (paper p = l/r)", h.Clusters())
	}
}

func TestClusterAt(t *testing.T) {
	h := tableIHighway(t)
	tests := []struct {
		x    float64
		want int
	}{
		{0, 1}, {999.9, 1}, {1000, 2}, {4500, 5}, {9000, 10}, {9999, 10},
		{10_000, 10}, // end of road clamps to last cluster
		{-5, 1},      // before the road clamps to first
		{20_000, 10}, // past the road clamps to last
	}
	for _, tt := range tests {
		if got := h.ClusterAt(tt.x); got != tt.want {
			t.Errorf("ClusterAt(%v) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

func TestClusterCenterAndBounds(t *testing.T) {
	h := tableIHighway(t)
	for c := 1; c <= 10; c++ {
		center := h.ClusterCenter(c)
		wantX := float64(c)*1000 - 500
		if center.X != wantX || center.Y != 100 {
			t.Errorf("ClusterCenter(%d) = %v, want (%v, 100)", c, center, wantX)
		}
		lo, hi := h.ClusterBounds(c)
		if lo != float64(c-1)*1000 || hi != float64(c)*1000 {
			t.Errorf("ClusterBounds(%d) = [%v, %v)", c, lo, hi)
		}
		if h.ClusterAt(center.X) != c {
			t.Errorf("center of cluster %d maps to cluster %d", c, h.ClusterAt(center.X))
		}
	}
}

func TestClusterCenterPanicsOutOfRange(t *testing.T) {
	h := tableIHighway(t)
	for _, c := range []int{0, 11, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ClusterCenter(%d) did not panic", c)
				}
			}()
			h.ClusterCenter(c)
		}()
	}
}

func TestOverlapZone(t *testing.T) {
	h := tableIHighway(t)
	// With a 1000 m range and RSUs at 500, 1500, ...: x=500 reaches only
	// RSU1 (distance to RSU2 is 1000 -> inclusive boundary reaches it too).
	// Use strict interior points.
	if len(h.ClustersInRange(400, 1000)) > 1 {
		// RSU1 at 500 (100m), RSU2 at 1500 (1100m) -> single zone
		t.Error("x=400 should be a single zone with 1000m range")
	}
	if len(h.ClustersInRange(1000, 1000)) < 2 {
		// RSU1 at 500 (500m), RSU2 at 1500 (500m) -> overlapped
		t.Error("x=1000 (cluster boundary) should be an overlapped zone")
	}
	got := h.ClustersInRange(1000, 1000)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("ClustersInRange(1000, 1000) = %v, want [1 2]", got)
	}
	// RSUs sit at 500, 1500, ..., 9500; from x=5000 a 2200 m range reaches
	// the heads of clusters 4-7.
	if got := h.ClustersInRange(5000, 2200); len(got) != 4 || got[0] != 4 || got[3] != 7 {
		t.Errorf("ClustersInRange(5000, 2200) = %v, want [4 5 6 7]", got)
	}
}

func TestDistance(t *testing.T) {
	a := Position{X: 0, Y: 0}
	b := Position{X: 3, Y: 4}
	if d := a.DistanceTo(b); d != 5 {
		t.Errorf("DistanceTo = %v, want 5", d)
	}
	if d := b.DistanceTo(a); d != 5 {
		t.Errorf("distance not symmetric: %v", d)
	}
}

func TestStaticLocator(t *testing.T) {
	h := tableIHighway(t)
	s := Static{Pos: h.ClusterCenter(3), H: h}
	if s.PositionAt(0) != s.PositionAt(time.Hour) {
		t.Error("static node moved")
	}
	if !onHighway(s, time.Hour) {
		t.Error("static node reported off-highway")
	}
}

// onHighway reports Locate's on-road flag alone.
func onHighway(l Locator, t time.Duration) bool {
	_, on := l.Locate(t)
	return on
}

// TestLocateMatchesParts holds Locate to PositionAt and to the raw travel
// coordinate's road bounds over a trajectory that drives, re-bases, leaves
// the road's end and exits.
func TestLocateMatchesParts(t *testing.T) {
	h := tableIHighway(t)
	s := Static{Pos: h.ClusterCenter(3), H: h}
	if p, on := s.Locate(time.Hour); p != s.PositionAt(time.Hour) || !on {
		t.Errorf("static Locate = (%v, %v)", p, on)
	}
	east, _ := NewMobileOnRoad(h, h.Roads()[0], Position{X: 9000, Y: 10}, Eastbound, 30, 0)
	west, _ := NewMobileOnRoad(h, h.Roads()[0], Position{X: 500, Y: 10}, Westbound, 25, 0)
	west.SetSpeed(10*time.Second, 5)
	exits, _ := NewMobileOnRoad(h, h.Roads()[0], Position{X: 5000, Y: 10}, Eastbound, 20, 0)
	exits.Exit(50 * time.Second)
	for _, m := range []*Mobile{east, west, exits} {
		lo, hi := m.TravelBounds()
		for at := time.Duration(0); at <= 200*time.Second; at += 250 * time.Millisecond {
			p, on := m.Locate(at)
			raw := m.rawAlong(at)
			want := !m.Exited() && raw >= lo && raw <= hi
			if p != m.PositionAt(at) || on != want {
				t.Fatalf("Locate(%v) = (%v, %v), want (%v, %v)", at, p, on, m.PositionAt(at), want)
			}
		}
	}
}

func TestMobileKinematics(t *testing.T) {
	h := tableIHighway(t)
	m, err := NewMobileOnRoad(h, h.Roads()[0], Position{X: 1000, Y: 50}, Eastbound, 25, 0)
	if err != nil {
		t.Fatalf("NewMobileOnRoad: %v", err)
	}
	p := m.PositionAt(10 * time.Second)
	if math.Abs(p.X-1250) > 1e-9 || p.Y != 50 {
		t.Errorf("PositionAt(10s) = %v, want (1250, 50)", p)
	}
	if c := m.ClusterAt(10 * time.Second); c != 2 {
		t.Errorf("ClusterAt(10s) = %d, want 2", c)
	}
	// 9000m to the end at 25 m/s = 360s.
	dep, ok := m.DepartureTime()
	if !ok || dep != 360*time.Second {
		t.Errorf("DepartureTime = (%v, %v), want (360s, true)", dep, ok)
	}
	if onHighway(m, 359*time.Second) != true {
		t.Error("on-highway at 359s = false")
	}
	if onHighway(m, 361*time.Second) {
		t.Error("still on-highway after departure")
	}
	// Position clamps at the end.
	if p := m.PositionAt(time.Hour); p.X != 10_000 {
		t.Errorf("clamped position = %v, want X=10000", p)
	}
}

func TestMobileWestbound(t *testing.T) {
	h := tableIHighway(t)
	m, err := NewMobileOnRoad(h, h.Roads()[0], Position{X: 500, Y: 150}, Westbound, 20, 0)
	if err != nil {
		t.Fatalf("NewMobileOnRoad: %v", err)
	}
	p := m.PositionAt(10 * time.Second)
	if math.Abs(p.X-300) > 1e-9 {
		t.Errorf("PositionAt(10s).X = %v, want 300", p.X)
	}
	dep, ok := m.DepartureTime()
	if !ok || dep != 25*time.Second {
		t.Errorf("DepartureTime = (%v, %v), want (25s, true)", dep, ok)
	}
}

func TestMobileValidation(t *testing.T) {
	h := tableIHighway(t)
	if _, err := NewMobileOnRoad(nil, h.Roads()[0], Position{}, Eastbound, 10, 0); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := NewMobileOnRoad(h, h.Roads()[0], Position{X: -1, Y: 0}, Eastbound, 10, 0); err == nil {
		t.Error("off-highway start accepted")
	}
	if _, err := NewMobileOnRoad(h, h.Roads()[0], Position{X: 0, Y: 0}, Eastbound, -1, 0); err == nil {
		t.Error("negative speed accepted")
	}
	if _, err := NewMobileOnRoad(h, h.Roads()[0], Position{X: 0, Y: 0}, Direction(0), 10, 0); err == nil {
		t.Error("invalid direction accepted")
	}
}

func TestMobileSetSpeedContinuity(t *testing.T) {
	h := tableIHighway(t)
	m, _ := NewMobileOnRoad(h, h.Roads()[0], Position{X: 0, Y: 10}, Eastbound, 10, 0)
	before := m.PositionAt(100 * time.Second) // 1000m
	if err := m.SetSpeed(100*time.Second, 30); err != nil {
		t.Fatalf("SetSpeed: %v", err)
	}
	after := m.PositionAt(100 * time.Second)
	if math.Abs(before.X-after.X) > 1e-9 {
		t.Errorf("position jumped on SetSpeed: %v -> %v", before, after)
	}
	p := m.PositionAt(110 * time.Second)
	if math.Abs(p.X-1300) > 1e-9 {
		t.Errorf("PositionAt(110s).X = %v, want 1300", p.X)
	}
	if err := m.SetSpeed(110*time.Second, -3); err == nil {
		t.Error("negative speed accepted by SetSpeed")
	}
}

func TestMobileExit(t *testing.T) {
	h := tableIHighway(t)
	m, _ := NewMobileOnRoad(h, h.Roads()[0], Position{X: 5000, Y: 10}, Eastbound, 20, 0)
	m.Exit(50 * time.Second) // at 6000m
	if !m.Exited() {
		t.Error("Exited() = false after Exit")
	}
	if onHighway(m, 51*time.Second) {
		t.Error("on-highway after Exit")
	}
	if p := m.PositionAt(time.Hour); math.Abs(p.X-6000) > 1e-9 {
		t.Errorf("position after exit = %v, want frozen at 6000", p)
	}
	if _, ok := m.TimeToReach(9000); ok {
		t.Error("exited vehicle claims it will reach 9000m")
	}
	if dep, ok := m.DepartureTime(); !ok || dep != 50*time.Second {
		t.Errorf("DepartureTime after exit = (%v, %v), want (50s, true)", dep, ok)
	}
}

func TestTimeToReach(t *testing.T) {
	h := tableIHighway(t)
	m, _ := NewMobileOnRoad(h, h.Roads()[0], Position{X: 1000, Y: 10}, Eastbound, 25, 0)
	at, ok := m.TimeToReach(2000)
	if !ok || at != 40*time.Second {
		t.Errorf("TimeToReach(2000) = (%v, %v), want (40s, true)", at, ok)
	}
	if _, ok := m.TimeToReach(500); ok {
		t.Error("eastbound vehicle claims it will reach a point behind it")
	}
	stopped, _ := NewMobileOnRoad(h, h.Roads()[0], Position{X: 1000, Y: 10}, Eastbound, 0, 0)
	if _, ok := stopped.TimeToReach(2000); ok {
		t.Error("stationary vehicle claims it will reach 2000m")
	}
	if at, ok := stopped.TimeToReach(1000); !ok || at != 0 {
		t.Errorf("TimeToReach(current) = (%v, %v), want (0, true)", at, ok)
	}
}

// TestMobileMonotonicProperty: an eastbound vehicle's X never decreases and a
// westbound vehicle's X never increases, across random speeds and query times.
func TestMobileMonotonicProperty(t *testing.T) {
	h := tableIHighway(t)
	prop := func(speedKmh uint16, t1, t2 uint32, west bool) bool {
		speed := KmhToMs(float64(speedKmh%41 + 50)) // 50..90 km/h
		dir := Eastbound
		start := Position{X: 0, Y: 100}
		if west {
			dir = Westbound
			start.X = h.Length()
		}
		m, err := NewMobileOnRoad(h, h.Roads()[0], start, dir, speed, 0)
		if err != nil {
			return false
		}
		ta := time.Duration(t1%100_000) * time.Millisecond
		tb := time.Duration(t2%100_000) * time.Millisecond
		if ta > tb {
			ta, tb = tb, ta
		}
		xa, xb := m.PositionAt(ta).X, m.PositionAt(tb).X
		if west {
			return xb <= xa
		}
		return xa <= xb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOverlapZoneSymmetryProperty: with full RSU coverage, every on-road
// point is in range of at least one cluster head, its own cluster's among
// them.
func TestOverlapZoneSymmetryProperty(t *testing.T) {
	h := tableIHighway(t)
	prop := func(raw uint32) bool {
		x := float64(raw % 10_000)
		reach := h.ClustersInRange(x, 1000)
		if len(reach) == 0 {
			return false // coverage hole
		}
		// The covering cluster's own head is always reachable.
		own := h.ClusterAt(x)
		for _, c := range reach {
			if c == own {
				return true
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDepartureConsistentProperty: a vehicle is on the highway strictly
// before its departure time and off it strictly after.
func TestDepartureConsistentProperty(t *testing.T) {
	h := tableIHighway(t)
	prop := func(startRaw uint16, speedRaw uint8, west bool) bool {
		start := float64(startRaw % 10_000)
		speed := KmhToMs(float64(speedRaw%41 + 50))
		dir := Eastbound
		if west {
			dir = Westbound
		}
		m, err := NewMobileOnRoad(h, h.Roads()[0], Position{X: start, Y: 100}, dir, speed, 0)
		if err != nil {
			return false
		}
		dep, ok := m.DepartureTime()
		if !ok {
			return false // moving vehicles always depart eventually
		}
		eps := 10 * time.Millisecond
		if dep > eps && !onHighway(m, dep-eps) {
			return false
		}
		return !onHighway(m, dep+eps)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestClusterAtConsistentWithBounds: for random x on the road, x lies within
// the bounds of its reported cluster.
func TestClusterAtConsistentWithBounds(t *testing.T) {
	h := tableIHighway(t)
	prop := func(raw uint32) bool {
		x := float64(raw%10_000_000) / 1000 // [0, 10000)
		c := h.ClusterAt(x)
		lo, hi := h.ClusterBounds(c)
		return x >= lo && x < hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
