package mobility

import (
	"fmt"
	"math"
	"time"
)

// Axis is a road's travel axis.
type Axis int

// Road travel axes.
const (
	AxisX Axis = iota // travel along X, fixed Y band
	AxisY             // travel along Y, fixed X band
)

func (a Axis) String() string {
	if a == AxisY {
		return "y"
	}
	return "x"
}

// Velocity is a planar velocity in m/s.
type Velocity struct {
	VX, VY float64
}

// IsZero reports whether the velocity is exactly zero.
func (v Velocity) IsZero() bool { return v.VX == 0 && v.VY == 0 }

// Rect is an axis-aligned rectangle with closed bounds.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Contains reports whether p lies in the rectangle (boundary-inclusive).
func (r Rect) Contains(p Position) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Center returns the rectangle's midpoint. Halving before adding keeps the
// midpoint finite even when the bounds sum past MaxFloat64.
func (r Rect) Center() Position {
	return Position{X: r.X0/2 + r.X1/2, Y: r.Y0/2 + r.Y1/2}
}

// Touches reports whether the two closed rectangles intersect or share an
// edge or corner.
func (r Rect) Touches(o Rect) bool {
	return r.X0 <= o.X1 && o.X0 <= r.X1 && r.Y0 <= o.Y1 && o.Y0 <= r.Y1
}

// Road is one straight road strip: a travel extent [Lo, Hi] along Axis and a
// lateral band [CLo, CHi] across it.
type Road struct {
	Axis     Axis
	Lo, Hi   float64 // extent along the travel axis
	CLo, CHi float64 // extent across it
}

// Rect returns the road's footprint.
func (r Road) Rect() Rect {
	if r.Axis == AxisY {
		return Rect{X0: r.CLo, Y0: r.Lo, X1: r.CHi, Y1: r.Hi}
	}
	return Rect{X0: r.Lo, Y0: r.CLo, X1: r.Hi, Y1: r.CHi}
}

// At composes a position from a travel-axis coordinate and a lateral one.
func (r Road) At(along, cross float64) Position {
	if r.Axis == AxisY {
		return Position{X: cross, Y: along}
	}
	return Position{X: along, Y: cross}
}

// Along projects p onto the road's travel axis.
func (r Road) Along(p Position) float64 {
	if r.Axis == AxisY {
		return p.Y
	}
	return p.X
}

// Cross projects p onto the road's lateral axis.
func (r Road) Cross(p Position) float64 {
	if r.Axis == AxisY {
		return p.X
	}
	return p.Y
}

// Topology is a clustered road geometry: the world the scenario builds on and
// the cluster layout the membership protocol serves. *Highway implements it
// with the paper's single straight road; RoadMesh composes many road strips
// (grid cities, parallel highways, interchanges). Clusters are 1-based, as in
// the paper.
type Topology interface {
	// Clusters returns the number of clusters.
	Clusters() int
	// Contains reports whether p lies on a road surface.
	Contains(p Position) bool
	// ClusterOf returns the 1-based cluster covering p, clamped to the
	// nearest cluster for off-road coordinates (total: never panics).
	ClusterOf(p Position) int
	// ClusterCenter returns the RSU mounting point for cluster c.
	ClusterCenter(c int) Position
	// ClusterRect returns cluster c's footprint.
	ClusterRect(c int) Rect
	// Adjacent reports whether clusters a and b border each other. Out-of-
	// range indices are simply not adjacent.
	Adjacent(a, b int) bool
	// Neighbors returns the clusters adjacent to c in ascending order. The
	// returned slice is shared; callers must not modify it.
	Neighbors(c int) []int
	// ClustersNear returns, in ascending order, the clusters whose head is
	// within txRange of p (boundary-inclusive).
	ClustersNear(p Position, txRange float64) []int
	// Bounds returns the bounding box of every road.
	Bounds() Rect
	// Roads returns the road strips making up the topology. The returned
	// slice is shared; callers must not modify it.
	Roads() []Road
	// ClusterRoad returns the 0-based index into Roads of the road owning
	// cluster c.
	ClusterRoad(c int) int
}

// Kinematic extends Locator with an analytic motion description, letting a
// spatial index schedule re-bucketing at exact cell-crossing times instead of
// polling positions. Static and *Mobile implement it.
type Kinematic interface {
	Locator
	// MotionAt returns the position and instantaneous velocity at t, plus
	// the virtual time until which straight-line motion at that velocity
	// remains valid (0 = forever). Callers may extrapolate the position
	// linearly strictly before the returned horizon.
	MotionAt(t time.Duration) (Position, Velocity, time.Duration)
	// OnMotionChange registers fn to run whenever the trajectory is
	// re-based out of band (speed change, exit), so observers can
	// invalidate cached extrapolations. Callbacks are never removed.
	OnMotionChange(fn func())
}

// --- Highway conformance -------------------------------------------------

var _ Topology = (*Highway)(nil)

// ClusterOf implements Topology: the cluster covering p's longitudinal
// coordinate (the highway's historical, X-only semantics).
func (h *Highway) ClusterOf(p Position) int { return h.ClusterAt(p.X) }

// ClusterRect implements Topology.
func (h *Highway) ClusterRect(c int) Rect {
	lo, hi := h.ClusterBounds(c)
	return Rect{X0: lo, Y0: 0, X1: hi, Y1: h.width}
}

// Adjacent implements Topology: consecutive clusters border each other.
func (h *Highway) Adjacent(a, b int) bool {
	if a < 1 || a > h.clusters || b < 1 || b > h.clusters {
		return false
	}
	return a-b == 1 || b-a == 1
}

// Neighbors implements Topology. An out-of-range cluster has none.
func (h *Highway) Neighbors(c int) []int {
	if c < 1 || c > h.clusters {
		return nil
	}
	return h.adj[c-1]
}

// ClustersNear implements Topology. It keeps the highway's historical
// longitudinal-distance semantics (ClustersInRange): only the X distance to
// each head counts, matching the paper's one-dimensional overlap zones.
func (h *Highway) ClustersNear(p Position, txRange float64) []int {
	return h.ClustersInRange(p.X, txRange)
}

// Bounds implements Topology.
func (h *Highway) Bounds() Rect { return Rect{X0: 0, Y0: 0, X1: h.length, Y1: h.width} }

// Roads implements Topology.
func (h *Highway) Roads() []Road { return h.roads[:] }

// ClusterRoad implements Topology: every cluster lies on the one road.
func (h *Highway) ClusterRoad(c int) int {
	h.checkCluster(c)
	return 0
}

// --- RoadMesh ------------------------------------------------------------

// Construction limits: caps keep degenerate (fuzzed) meshes from exhausting
// memory while staying far above any realistic metro configuration.
const (
	maxMeshRoads    = 128
	maxMeshClusters = 1 << 16
	maxMeshAdjacent = 1 << 20
	// maxMeshCoord bounds every road coordinate: beyond ~1e15 m, squared
	// distances and midpoints start losing metre-scale precision (and can
	// overflow), so such worlds are rejected rather than mis-simulated.
	maxMeshCoord = 1e15
)

// RoadMesh is a composable Topology: a set of axis-aligned road strips, each
// divided into equal clusterLen segments. Clusters are numbered strip-major
// (road 0's segments first, in travel order). Two clusters are adjacent when
// their footprints intersect or touch — consecutive segments of one road, or
// crossing/abutting segments of different roads.
type RoadMesh struct {
	roads      []Road
	clusterLen float64
	segs       []Rect // per cluster (index c-1)
	segRoad    []int  // owning road per cluster
	firstSeg   []int  // per road: 0-based index of its first cluster
	adj        [][]int
	bounds     Rect
}

var _ Topology = (*RoadMesh)(nil)

// NewRoadMesh builds a mesh from road strips. Every road extent must be a
// positive whole multiple of clusterLen (the paper's equal-size static
// clusters, per strip).
func NewRoadMesh(clusterLen float64, roads ...Road) (*RoadMesh, error) {
	if len(roads) == 0 {
		return nil, fmt.Errorf("mobility: mesh needs at least one road")
	}
	if len(roads) > maxMeshRoads {
		return nil, fmt.Errorf("mobility: %d roads exceeds the mesh limit %d", len(roads), maxMeshRoads)
	}
	if !(clusterLen > 0) || math.IsInf(clusterLen, 0) {
		return nil, fmt.Errorf("mobility: cluster length %v must be positive and finite", clusterLen)
	}
	m := &RoadMesh{roads: append([]Road(nil), roads...), clusterLen: clusterLen}
	total := 0
	for ri, r := range m.roads {
		if r.Axis != AxisX && r.Axis != AxisY {
			return nil, fmt.Errorf("mobility: road %d has invalid axis %d", ri, int(r.Axis))
		}
		for _, v := range []float64{r.Lo, r.Hi, r.CLo, r.CHi} {
			if math.IsNaN(v) || math.Abs(v) > maxMeshCoord {
				return nil, fmt.Errorf("mobility: road %d bound %v outside [-%g, %g]", ri, v, maxMeshCoord, maxMeshCoord)
			}
		}
		if r.Hi <= r.Lo || r.CHi <= r.CLo {
			return nil, fmt.Errorf("mobility: road %d has an empty extent", ri)
		}
		n := (r.Hi - r.Lo) / clusterLen
		rounded := math.Round(n)
		if rounded < 1 || math.Abs(n-rounded) > 1e-9 || rounded > maxMeshClusters {
			return nil, fmt.Errorf("mobility: road %d length %vm is not a whole multiple of cluster length %vm", ri, r.Hi-r.Lo, clusterLen)
		}
		total += int(rounded)
		if total > maxMeshClusters {
			return nil, fmt.Errorf("mobility: mesh exceeds %d clusters", maxMeshClusters)
		}
	}
	m.segs = make([]Rect, 0, total)
	m.segRoad = make([]int, 0, total)
	m.firstSeg = make([]int, len(m.roads))
	for ri, r := range m.roads {
		m.firstSeg[ri] = len(m.segs)
		n := int(math.Round((r.Hi - r.Lo) / clusterLen))
		lo := r.Lo
		for i := 0; i < n; i++ {
			// Each segment starts exactly where the previous one ended:
			// recomputing lo as Lo + i*clusterLen can round a hair below
			// the previous hi, leaving 1-ulp gaps no cluster covers.
			hi := r.Lo + float64(i+1)*clusterLen
			if i == n-1 {
				hi = r.Hi // absorb rounding so the last segment reaches the end
			}
			seg := Road{Axis: r.Axis, Lo: lo, Hi: hi, CLo: r.CLo, CHi: r.CHi}.Rect()
			m.segs = append(m.segs, seg)
			m.segRoad = append(m.segRoad, ri)
			lo = hi
		}
		rb := r.Rect()
		if ri == 0 {
			m.bounds = rb
		} else {
			m.bounds.X0 = math.Min(m.bounds.X0, rb.X0)
			m.bounds.Y0 = math.Min(m.bounds.Y0, rb.Y0)
			m.bounds.X1 = math.Max(m.bounds.X1, rb.X1)
			m.bounds.Y1 = math.Max(m.bounds.Y1, rb.Y1)
		}
	}
	if err := m.buildAdjacency(); err != nil {
		return nil, err
	}
	return m, nil
}

// roadSegs returns the number of segments of road ri.
func (m *RoadMesh) roadSegs(ri int) int {
	if ri == len(m.roads)-1 {
		return len(m.segs) - m.firstSeg[ri]
	}
	return m.firstSeg[ri+1] - m.firstSeg[ri]
}

// buildAdjacency fills adj without the O(C²) all-pairs sweep: consecutive
// segments of each road touch by construction, and cross-road pairs are
// bounded to the segments overlapping the two strips' intersection.
func (m *RoadMesh) buildAdjacency() error {
	m.adj = make([][]int, len(m.segs))
	entries := 0
	link := func(a, b int) error { // 0-based
		entries += 2
		if entries > maxMeshAdjacent {
			return fmt.Errorf("mobility: mesh adjacency exceeds %d entries (roads too densely overlapped)", maxMeshAdjacent)
		}
		m.adj[a] = append(m.adj[a], b+1)
		m.adj[b] = append(m.adj[b], a+1)
		return nil
	}
	for ri := range m.roads {
		base := m.firstSeg[ri]
		for i := 1; i < m.roadSegs(ri); i++ {
			if err := link(base+i-1, base+i); err != nil {
				return err
			}
		}
	}
	for r1 := 0; r1 < len(m.roads); r1++ {
		for r2 := r1 + 1; r2 < len(m.roads); r2++ {
			if !m.roads[r1].Rect().Touches(m.roads[r2].Rect()) {
				continue
			}
			// Candidate segments of r1: those whose extent along r1's axis
			// meets r2's footprint (±1 slack for shared-edge touching).
			o := m.roads[r2].Rect()
			iLo, iHi := m.segRange(r1, m.roads[r1].Along(Position{X: o.X0, Y: o.Y0}), m.roads[r1].Along(Position{X: o.X1, Y: o.Y1}))
			for i := iLo; i <= iHi; i++ {
				si := m.segs[m.firstSeg[r1]+i]
				jLo, jHi := m.segRange(r2, m.roads[r2].Along(Position{X: si.X0, Y: si.Y0}), m.roads[r2].Along(Position{X: si.X1, Y: si.Y1}))
				for j := jLo; j <= jHi; j++ {
					if si.Touches(m.segs[m.firstSeg[r2]+j]) {
						if err := link(m.firstSeg[r1]+i, m.firstSeg[r2]+j); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	for c := range m.adj {
		sortInts(m.adj[c])
	}
	return nil
}

// segRange returns the clamped segment index range of road ri whose travel
// extent could touch [lo, hi] along that road's axis.
func (m *RoadMesh) segRange(ri int, lo, hi float64) (int, int) {
	r := m.roads[ri]
	n := m.roadSegs(ri)
	iLo := clampSegIndex(math.Floor((lo-r.Lo)/m.clusterLen)-1, n)
	iHi := clampSegIndex(math.Floor((hi-r.Lo)/m.clusterLen)+1, n)
	return iLo, iHi
}

// clampSegIndex converts a (possibly NaN or out-of-range) float segment index
// to a valid one.
func clampSegIndex(f float64, n int) int {
	if !(f > 0) { // NaN or <= 0
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// sortInts is a small insertion sort: neighbor lists are short and this keeps
// the build allocation-free.
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Clusters implements Topology.
func (m *RoadMesh) Clusters() int { return len(m.segs) }

// ClusterLength returns the per-segment length in metres.
func (m *RoadMesh) ClusterLength() float64 { return m.clusterLen }

// Contains implements Topology.
func (m *RoadMesh) Contains(p Position) bool {
	for _, r := range m.roads {
		if r.Rect().Contains(p) {
			return true
		}
	}
	return false
}

// ClusterOf implements Topology: the first road containing p wins (crossing
// roads overlap at intersections; assignment is deterministic by road order);
// off-road positions clamp to the nearest road, ties to the lowest index.
func (m *RoadMesh) ClusterOf(p Position) int {
	for ri, r := range m.roads {
		if r.Rect().Contains(p) {
			return m.firstSeg[ri] + m.segIndex(ri, r.Along(p)) + 1
		}
	}
	best, bestD := 0, math.Inf(1)
	for ri, r := range m.roads {
		d := rectDist2(r.Rect(), p)
		if d < bestD {
			best, bestD = ri, d
		}
	}
	return m.firstSeg[best] + m.segIndex(best, m.roads[best].Along(p)) + 1
}

// rectDist2 is the squared distance from p to the closed rectangle.
func rectDist2(r Rect, p Position) float64 {
	dx := math.Max(math.Max(r.X0-p.X, 0), p.X-r.X1)
	dy := math.Max(math.Max(r.Y0-p.Y, 0), p.Y-r.Y1)
	return dx*dx + dy*dy
}

// segIndex returns the clamped 0-based segment index of road ri at travel
// coordinate along. It searches the stored tiles rather than dividing by
// clusterLen so the answer is exactly consistent with the segment rects
// (division can land one ulp across a tile boundary).
func (m *RoadMesh) segIndex(ri int, along float64) int {
	r := m.roads[ri]
	n := m.roadSegs(ri)
	if math.IsNaN(along) || along <= r.Lo {
		return 0
	}
	if along >= r.Hi {
		return n - 1
	}
	base := m.firstSeg[ri]
	lo, hi := 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		seg := m.segs[base+mid]
		segHi := seg.X1
		if r.Axis == AxisY {
			segHi = seg.Y1
		}
		if segHi >= along {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (m *RoadMesh) checkCluster(c int) {
	if c < 1 || c > len(m.segs) {
		panic(fmt.Sprintf("mobility: cluster %d out of range [1, %d]", c, len(m.segs)))
	}
}

// ClusterCenter implements Topology.
func (m *RoadMesh) ClusterCenter(c int) Position {
	m.checkCluster(c)
	return m.segs[c-1].Center()
}

// ClusterRect implements Topology.
func (m *RoadMesh) ClusterRect(c int) Rect {
	m.checkCluster(c)
	return m.segs[c-1]
}

// ClusterRoad implements Topology.
func (m *RoadMesh) ClusterRoad(c int) int {
	m.checkCluster(c)
	return m.segRoad[c-1]
}

// Adjacent implements Topology.
func (m *RoadMesh) Adjacent(a, b int) bool {
	if a < 1 || a > len(m.segs) || b < 1 || b > len(m.segs) || a == b {
		return false
	}
	for _, n := range m.adj[a-1] {
		if n == b {
			return true
		}
	}
	return false
}

// Neighbors implements Topology.
func (m *RoadMesh) Neighbors(c int) []int {
	m.checkCluster(c)
	return m.adj[c-1]
}

// ClustersNear implements Topology: clusters whose center (RSU mounting
// point) lies within Euclidean txRange of p, boundary-inclusive. Candidates
// are pruned per road to the segments whose center could be close enough.
func (m *RoadMesh) ClustersNear(p Position, txRange float64) []int {
	var out []int
	for ri, r := range m.roads {
		cc := (r.CLo + r.CHi) / 2
		dc := r.Cross(p) - cc
		if math.Abs(dc) > txRange {
			continue
		}
		reach := math.Sqrt(txRange*txRange - dc*dc)
		along := r.Along(p)
		iLo := clampSegIndex(math.Floor((along-reach-r.Lo)/m.clusterLen)-1, m.roadSegs(ri))
		iHi := clampSegIndex(math.Floor((along+reach-r.Lo)/m.clusterLen)+1, m.roadSegs(ri))
		for i := iLo; i <= iHi; i++ {
			if p.DistanceTo(m.segs[m.firstSeg[ri]+i].Center()) <= txRange {
				out = append(out, m.firstSeg[ri]+i+1)
			}
		}
	}
	return out
}

// Bounds implements Topology.
func (m *RoadMesh) Bounds() Rect { return m.bounds }

// Roads implements Topology.
func (m *RoadMesh) Roads() []Road { return m.roads }

// --- Composed constructors ----------------------------------------------

// NewMultiHighway builds count parallel highways of the given length and
// width, separated by gap metres. With gap = 0 the carriageways touch and
// lateral neighbors are adjacent clusters; with gap > 0 adjacency is
// per-carriageway only (radio range still spans the median).
func NewMultiHighway(count int, length, width, gap, clusterLen float64) (*RoadMesh, error) {
	if count < 1 || count > maxMeshRoads {
		return nil, fmt.Errorf("mobility: %d carriageways out of range [1, %d]", count, maxMeshRoads)
	}
	if !(gap >= 0) || math.IsInf(gap, 0) {
		return nil, fmt.Errorf("mobility: carriageway gap %v must be non-negative and finite", gap)
	}
	roads := make([]Road, count)
	for i := range roads {
		lo := float64(i) * (width + gap)
		roads[i] = Road{Axis: AxisX, Lo: 0, Hi: length, CLo: lo, CHi: lo + width}
	}
	return NewRoadMesh(clusterLen, roads...)
}

// NewGridCity builds a Manhattan grid: rows horizontal roads and cols
// vertical roads of width roadWidth, spaced clusterLen apart (one cluster per
// block face). The world spans cols×clusterLen by rows×clusterLen metres and
// has 2·rows·cols clusters.
func NewGridCity(rows, cols int, clusterLen, roadWidth float64) (*RoadMesh, error) {
	if rows < 1 || cols < 1 || rows > maxMeshRoads/2 || cols > maxMeshRoads/2 {
		return nil, fmt.Errorf("mobility: grid %dx%d out of range [1, %d]", rows, cols, maxMeshRoads/2)
	}
	if !(roadWidth > 0) || math.IsInf(roadWidth, 0) {
		return nil, fmt.Errorf("mobility: road width %v must be positive and finite", roadWidth)
	}
	w := float64(cols) * clusterLen
	h := float64(rows) * clusterLen
	roads := make([]Road, 0, rows+cols)
	for i := 0; i < rows; i++ {
		cy := (float64(i) + 0.5) * clusterLen
		roads = append(roads, Road{Axis: AxisX, Lo: 0, Hi: w, CLo: cy - roadWidth/2, CHi: cy + roadWidth/2})
	}
	for j := 0; j < cols; j++ {
		cx := (float64(j) + 0.5) * clusterLen
		roads = append(roads, Road{Axis: AxisY, Lo: 0, Hi: h, CLo: cx - roadWidth/2, CHi: cx + roadWidth/2})
	}
	return NewRoadMesh(clusterLen, roads...)
}

// NewInterchange builds two equal-length highways of the given width crossing
// at their midpoints: one along X, one along Y.
func NewInterchange(length, width, clusterLen float64) (*RoadMesh, error) {
	if !(length > 0) || math.IsInf(length, 0) {
		return nil, fmt.Errorf("mobility: interchange length %v must be positive and finite", length)
	}
	mid := length / 2
	return NewRoadMesh(clusterLen,
		Road{Axis: AxisX, Lo: 0, Hi: length, CLo: mid - width/2, CHi: mid + width/2},
		Road{Axis: AxisY, Lo: 0, Hi: length, CLo: mid - width/2, CHi: mid + width/2},
	)
}
