package mobility

import (
	"math"
	"reflect"
	"testing"
)

// checkTopologyInvariants asserts the structural properties every Topology
// must satisfy, brute-forced over all clusters (or a stride-sample for very
// large meshes so fuzzing stays fast).
func checkTopologyInvariants(t *testing.T, topo Topology) {
	t.Helper()
	n := topo.Clusters()
	if n < 1 {
		t.Fatalf("Clusters() = %d, want >= 1", n)
	}
	stride := 1
	if n > 4096 {
		stride = n / 4096
	}
	bounds := topo.Bounds()
	for c := 1; c <= n; c += stride {
		rect := topo.ClusterRect(c)
		if rect.X1 < rect.X0 || rect.Y1 < rect.Y0 {
			t.Fatalf("cluster %d: inverted rect %+v", c, rect)
		}
		// The owning road covers the whole cluster.
		ri := topo.ClusterRoad(c)
		if ri < 0 || ri >= len(topo.Roads()) {
			t.Fatalf("ClusterRoad(%d) = %d out of [0, %d)", c, ri, len(topo.Roads()))
		}
		if road := topo.Roads()[ri].Rect(); !road.Contains(Position{X: rect.X0, Y: rect.Y0}) || !road.Contains(Position{X: rect.X1, Y: rect.Y1}) {
			t.Fatalf("cluster %d: rect %+v not on its road %d %+v", c, rect, ri, road)
		}
		center := topo.ClusterCenter(c)
		if !rect.Contains(center) {
			t.Fatalf("cluster %d: center %+v outside own rect %+v", c, center, rect)
		}
		if !bounds.Contains(center) {
			t.Fatalf("cluster %d: center %+v outside bounds %+v", c, center, bounds)
		}
		if !topo.Contains(center) {
			t.Fatalf("cluster %d: center %+v not on any road", c, center)
		}
		// The cluster covering a point must actually contain it.
		got := topo.ClusterOf(center)
		if got < 1 || got > n {
			t.Fatalf("ClusterOf(%+v) = %d out of [1, %d]", center, got, n)
		}
		if !topo.ClusterRect(got).Contains(center) {
			t.Fatalf("ClusterOf(center of %d) = %d, whose rect %+v misses %+v",
				c, got, topo.ClusterRect(got), center)
		}
		// Adjacency: irreflexive, symmetric, consistent with Neighbors,
		// sorted ascending, and geometrically touching.
		if topo.Adjacent(c, c) {
			t.Fatalf("cluster %d adjacent to itself", c)
		}
		prev := 0
		for _, nb := range topo.Neighbors(c) {
			if nb <= prev {
				t.Fatalf("cluster %d: neighbors %v not strictly ascending", c, topo.Neighbors(c))
			}
			prev = nb
			if nb < 1 || nb > n {
				t.Fatalf("cluster %d: neighbor %d out of range", c, nb)
			}
			if !topo.Adjacent(c, nb) || !topo.Adjacent(nb, c) {
				t.Fatalf("clusters %d and %d: Neighbors/Adjacent disagree or asymmetric", c, nb)
			}
			if !rect.Touches(topo.ClusterRect(nb)) {
				t.Fatalf("clusters %d and %d adjacent but rects %+v and %+v do not touch",
					c, nb, rect, topo.ClusterRect(nb))
			}
		}
	}
	// Out-of-range indices are never adjacent and never panic.
	for _, bad := range []int{0, -1, n + 1, math.MaxInt32} {
		if topo.Adjacent(bad, 1) || topo.Adjacent(1, bad) {
			t.Fatalf("out-of-range cluster %d reported adjacent", bad)
		}
	}
}

// checkTopologyProbe asserts the total-function contract at an arbitrary
// (possibly degenerate) coordinate: ClusterOf never panics and lands in
// range, on-road points resolve to a cluster containing them, and
// ClustersNear returns exactly the brute-force set of in-range centers.
func checkTopologyProbe(t *testing.T, topo Topology, p Position, txRange float64) {
	t.Helper()
	n := topo.Clusters()
	c := topo.ClusterOf(p)
	if c < 1 || c > n {
		t.Fatalf("ClusterOf(%+v) = %d out of [1, %d]", p, c, n)
	}
	finite := !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
	if finite && topo.Contains(p) && !topo.ClusterRect(c).Contains(p) {
		t.Fatalf("on-road point %+v assigned to cluster %d whose rect %+v misses it", p, c, topo.ClusterRect(c))
	}
	if !(txRange >= 0) || math.IsInf(txRange, 0) {
		return
	}
	near := topo.ClustersNear(p, txRange)
	var want []int
	for i := 1; i <= n; i++ {
		if p.DistanceTo(topo.ClusterCenter(i)) <= txRange {
			want = append(want, i)
		}
	}
	if !reflect.DeepEqual(near, want) && (len(near) != 0 || len(want) != 0) {
		t.Fatalf("ClustersNear(%+v, %v) = %v, want brute-force %v", p, txRange, near, want)
	}
}

func TestRoadMeshValidation(t *testing.T) {
	cases := []struct {
		name       string
		clusterLen float64
		roads      []Road
	}{
		{"no roads", 1000, nil},
		{"zero cluster length", 0, []Road{{Axis: AxisX, Lo: 0, Hi: 1000, CLo: 0, CHi: 30}}},
		{"negative cluster length", -5, []Road{{Axis: AxisX, Lo: 0, Hi: 1000, CLo: 0, CHi: 30}}},
		{"NaN cluster length", math.NaN(), []Road{{Axis: AxisX, Lo: 0, Hi: 1000, CLo: 0, CHi: 30}}},
		{"Inf cluster length", math.Inf(1), []Road{{Axis: AxisX, Lo: 0, Hi: 1000, CLo: 0, CHi: 30}}},
		{"empty extent", 1000, []Road{{Axis: AxisX, Lo: 500, Hi: 500, CLo: 0, CHi: 30}}},
		{"inverted extent", 1000, []Road{{Axis: AxisX, Lo: 1000, Hi: 0, CLo: 0, CHi: 30}}},
		{"empty lateral band", 1000, []Road{{Axis: AxisX, Lo: 0, Hi: 1000, CLo: 30, CHi: 30}}},
		{"NaN bound", 1000, []Road{{Axis: AxisX, Lo: 0, Hi: math.NaN(), CLo: 0, CHi: 30}}},
		{"Inf bound", 1000, []Road{{Axis: AxisX, Lo: 0, Hi: math.Inf(1), CLo: 0, CHi: 30}}},
		{"not a multiple", 1000, []Road{{Axis: AxisX, Lo: 0, Hi: 1500, CLo: 0, CHi: 30}}},
		{"invalid axis", 1000, []Road{{Axis: Axis(7), Lo: 0, Hi: 1000, CLo: 0, CHi: 30}}},
		{"too many clusters", 1e-12, []Road{{Axis: AxisX, Lo: 0, Hi: 1000, CLo: 0, CHi: 30}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewRoadMesh(tc.clusterLen, tc.roads...); err == nil {
				t.Fatal("NewRoadMesh accepted an invalid mesh")
			}
		})
	}
}

func TestGridCityShape(t *testing.T) {
	m, err := NewGridCity(3, 4, 1000, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Clusters(), 2*3*4; got != want {
		t.Fatalf("Clusters() = %d, want %d", got, want)
	}
	if got, want := m.Bounds(), (Rect{X0: 0, Y0: 0, X1: 4000, Y1: 3000}); got != want {
		t.Fatalf("Bounds() = %+v, want %+v", got, want)
	}
	checkTopologyInvariants(t, m)
	// A point on the first horizontal road, in its second block.
	p := Position{X: 1500, Y: 500}
	if !m.Contains(p) {
		t.Fatalf("grid does not contain %+v", p)
	}
	if got := m.ClusterOf(p); got != 2 {
		t.Fatalf("ClusterOf(%+v) = %d, want 2", p, got)
	}
	// An intersection point lies on two roads; the first road wins.
	x := Position{X: 500, Y: 500}
	c := m.ClusterOf(x)
	if rd := m.ClusterRoad(c); rd != 0 {
		t.Fatalf("intersection %+v assigned to road %d, want road 0 (first wins)", x, rd)
	}
}

func TestMultiHighwayAdjacency(t *testing.T) {
	// Touching carriageways (gap 0): lateral neighbors are adjacent.
	touching, err := NewMultiHighway(2, 4000, 200, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	checkTopologyInvariants(t, touching)
	if !touching.Adjacent(1, 5) {
		t.Fatal("gap 0: first clusters of the two carriageways should touch")
	}
	// A median gap severs lateral adjacency.
	gapped, err := NewMultiHighway(2, 4000, 200, 30, 1000)
	if err != nil {
		t.Fatal(err)
	}
	checkTopologyInvariants(t, gapped)
	if gapped.Adjacent(1, 5) {
		t.Fatal("gap 30: carriageways should not be adjacent across the median")
	}
	if !gapped.Adjacent(1, 2) || !gapped.Adjacent(5, 6) {
		t.Fatal("consecutive clusters of one carriageway must stay adjacent")
	}
}

func TestInterchangeCrossAdjacency(t *testing.T) {
	m, err := NewInterchange(4000, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	checkTopologyInvariants(t, m)
	if got, want := m.Clusters(), 8; got != want {
		t.Fatalf("Clusters() = %d, want %d", got, want)
	}
	// The central segments of the two highways overlap and must be adjacent.
	center := Position{X: 2000, Y: 2000}
	cx := m.ClusterOf(center)
	adjacentToOtherRoad := false
	for _, nb := range m.Neighbors(cx) {
		if m.ClusterRoad(nb) != m.ClusterRoad(cx) {
			adjacentToOtherRoad = true
		}
	}
	if !adjacentToOtherRoad {
		t.Fatal("interchange center cluster has no cross-road neighbor")
	}
}

var (
	roadsSink     []Road
	neighborsSink []int
)

func TestHighwayTopologyConformance(t *testing.T) {
	h, err := NewHighway(8000, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	checkTopologyInvariants(t, h)
	checkTopologyProbe(t, h, Position{X: 2500, Y: 100}, 1000)
	// Roads is read once per placed vehicle: it shares one slice.
	if n := testing.AllocsPerRun(10, func() { roadsSink = h.Roads() }); n != 0 {
		t.Errorf("Highway.Roads allocates %v times per call", n)
	}
	// Neighbors is read once per isolation: it shares the stored lists.
	if n := testing.AllocsPerRun(10, func() { neighborsSink = h.Neighbors(4) }); n != 0 {
		t.Errorf("Highway.Neighbors allocates %v times per call", n)
	}
}

// FuzzTopology builds arbitrary meshes and probes them at arbitrary
// coordinates: construction must either fail cleanly or yield a topology
// whose invariants hold and whose cluster assignment is total — no inputs,
// however degenerate, may panic.
func FuzzTopology(f *testing.F) {
	f.Add(uint8(0), int64(3), int64(4), 1000.0, 30.0, 0.0, 1500.0, 500.0, 1000.0)
	f.Add(uint8(1), int64(3), int64(0), 4000.0, 200.0, 30.0, -10.0, 1e9, 500.0)
	f.Add(uint8(2), int64(0), int64(0), 4000.0, 200.0, 0.0, 2000.0, 2000.0, 0.0)
	f.Add(uint8(3), int64(2), int64(1), 500.0, 250.0, 125.0, 250.0, 250.0, 750.0)
	// Degenerate dimensions: zero, negative, NaN, Inf, huge, subnormal.
	f.Add(uint8(0), int64(0), int64(-3), 0.0, -30.0, 0.0, math.NaN(), math.Inf(1), -1.0)
	f.Add(uint8(1), int64(1<<40), int64(2), math.Inf(1), math.NaN(), -5.0, 0.0, 0.0, math.NaN())
	f.Add(uint8(2), int64(1), int64(1), 1e308, 1e-320, 1e300, -1e300, 1e300, math.Inf(1))
	f.Add(uint8(3), int64(-1), int64(64), 7.7, 0.1, 0.0, 1e-320, -0.0, 0.5)
	f.Fuzz(func(t *testing.T, kind uint8, a, b int64, d1, d2, d3, px, py, txRange float64) {
		var (
			topo Topology
			err  error
		)
		switch kind % 4 {
		case 0:
			topo, err = NewGridCity(int(a%100), int(b%100), d1, d2)
		case 1:
			topo, err = NewMultiHighway(int(a%140), d1, d2, d3, d2)
		case 2:
			topo, err = NewInterchange(d1, d2, d1/4)
		default:
			// A raw mesh of up to three hand-cut strips sharing one
			// cluster length; any of them may be degenerate.
			roads := []Road{
				{Axis: Axis(a % 2), Lo: d2, Hi: d2 + d1*float64(1+b%4), CLo: 0, CHi: d3 + 10},
				{Axis: Axis(b % 2), Lo: 0, Hi: d1 * float64(1+a%4), CLo: px, CHi: px + d3 + 10},
				{Axis: AxisY, Lo: py, Hi: py + d1, CLo: -d3, CHi: d3},
			}
			topo, err = NewRoadMesh(d1, roads[:1+int(uint64(a+b)%3)]...)
		}
		if err != nil {
			return // rejected cleanly — the acceptable failure mode
		}
		if topo.Clusters() > 1<<16 {
			t.Fatalf("construction cap breached: %d clusters", topo.Clusters())
		}
		checkTopologyInvariants(t, topo)
		checkTopologyProbe(t, topo, Position{X: px, Y: py}, txRange)
	})
}
