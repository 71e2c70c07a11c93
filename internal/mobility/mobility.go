// Package mobility models the paper's highway geometry and vehicle motion.
//
// The highway is a straight controlled-access road of configurable length and
// width (Table I: 10 km x 200 m), divided into equal-length clusters (1000 m)
// with a Road Side Unit at the centre of each. Vehicles move kinematically at
// a constant per-vehicle speed; positions are evaluated analytically at any
// virtual time, so the discrete-event simulator never needs motion ticks.
package mobility

import (
	"fmt"
	"math"
	"time"
)

// KmhToMs converts km/h to m/s.
func KmhToMs(kmh float64) float64 { return kmh / 3.6 }

// MsToKmh converts m/s to km/h.
func MsToKmh(ms float64) float64 { return ms * 3.6 }

// Position is a point on the highway plane: X runs along the road from its
// start (metres), Y runs across it.
type Position struct {
	X, Y float64
}

// DistanceTo returns the Euclidean distance to q in metres.
func (p Position) DistanceTo(q Position) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

func (p Position) String() string {
	return fmt.Sprintf("(%.1fm, %.1fm)", p.X, p.Y)
}

// Direction is the travel direction along the highway axis.
type Direction int

// Directions of travel. Eastbound increases X.
const (
	Eastbound Direction = iota + 1
	Westbound
)

func (d Direction) String() string {
	switch d {
	case Eastbound:
		return "eastbound"
	case Westbound:
		return "westbound"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Sign returns +1 for Eastbound and -1 for Westbound.
func (d Direction) Sign() float64 {
	if d == Westbound {
		return -1
	}
	return 1
}

// Highway describes the road geometry and its static clustering.
type Highway struct {
	length     float64 // metres along X
	width      float64 // metres along Y
	clusterLen float64 // metres per cluster
	clusters   int
	roads      [1]Road // the one road; Roads shares it with every caller
	adj        [][]int // adj[c-1] = cluster c's neighbours; Neighbors shares it
}

// NewHighway builds a highway of the given dimensions divided into clusters
// of clusterLen metres. The length must be a positive whole multiple of
// clusterLen, matching the paper's equal-size static clusters.
func NewHighway(length, width, clusterLen float64) (*Highway, error) {
	switch {
	case length <= 0:
		return nil, fmt.Errorf("mobility: highway length %v must be positive", length)
	case width <= 0:
		return nil, fmt.Errorf("mobility: highway width %v must be positive", width)
	case clusterLen <= 0:
		return nil, fmt.Errorf("mobility: cluster length %v must be positive", clusterLen)
	}
	n := length / clusterLen
	rounded := math.Round(n)
	if rounded < 1 || math.Abs(n-rounded) > 1e-9 {
		return nil, fmt.Errorf("mobility: highway length %vm is not a whole multiple of cluster length %vm", length, clusterLen)
	}
	clusters := int(rounded)
	adj := make([][]int, clusters) // consecutive clusters border each other
	for c := 1; c <= clusters; c++ {
		for _, n := range [2]int{c - 1, c + 1} {
			if n >= 1 && n <= clusters {
				adj[c-1] = append(adj[c-1], n)
			}
		}
	}
	return &Highway{
		length: length, width: width, clusterLen: clusterLen, clusters: clusters,
		roads: [1]Road{{Axis: AxisX, Lo: 0, Hi: length, CLo: 0, CHi: width}},
		adj:   adj,
	}, nil
}

// Length returns the highway length in metres.
func (h *Highway) Length() float64 { return h.length }

// Width returns the highway width in metres.
func (h *Highway) Width() float64 { return h.width }

// ClusterLength returns the per-cluster length in metres.
func (h *Highway) ClusterLength() float64 { return h.clusterLen }

// Clusters returns the number of clusters (the paper's p = l / r).
func (h *Highway) Clusters() int { return h.clusters }

// Contains reports whether p lies on the highway surface.
func (h *Highway) Contains(p Position) bool {
	return p.X >= 0 && p.X <= h.length && p.Y >= 0 && p.Y <= h.width
}

// ClusterAt returns the 1-based cluster index covering longitudinal position
// x, clamped to the first/last cluster for off-road coordinates. The paper
// numbers clusters 1..10.
func (h *Highway) ClusterAt(x float64) int {
	if x < 0 {
		return 1
	}
	c := int(x/h.clusterLen) + 1
	if c > h.clusters {
		return h.clusters
	}
	return c
}

// ClusterCenter returns the RSU mounting point for cluster c (1-based):
// longitudinally central in the cluster, laterally central on the road.
func (h *Highway) ClusterCenter(c int) Position {
	h.checkCluster(c)
	return Position{X: (float64(c) - 0.5) * h.clusterLen, Y: h.width / 2}
}

// ClusterBounds returns the [lo, hi) longitudinal extent of cluster c.
func (h *Highway) ClusterBounds(c int) (lo, hi float64) {
	h.checkCluster(c)
	lo = float64(c-1) * h.clusterLen
	return lo, lo + h.clusterLen
}

func (h *Highway) checkCluster(c int) {
	if c < 1 || c > h.clusters {
		panic(fmt.Sprintf("mobility: cluster %d out of range [1, %d]", c, h.clusters))
	}
}

// ClustersInRange returns the 1-based indices of all clusters whose head is
// within txRange (longitudinally) of position x, in ascending order. More
// than one means x is in an overlap zone, from which a joining vehicle
// broadcasts its join request to every reachable cluster head (paper
// SIII-A).
func (h *Highway) ClustersInRange(x float64, txRange float64) []int {
	var out []int
	for c := 1; c <= h.clusters; c++ {
		center := (float64(c) - 0.5) * h.clusterLen
		if math.Abs(x-center) <= txRange {
			out = append(out, c)
		}
	}
	return out
}

// Locator yields a (possibly moving) node position over virtual time.
type Locator interface {
	// PositionAt returns the node position at virtual time t.
	PositionAt(t time.Duration) Position
	// Locate returns PositionAt(t) and whether the node is on the road (and
	// therefore radio-active) at virtual time t.
	Locate(t time.Duration) (Position, bool)
}

// Static is a stationary Locator (RSUs, trusted-authority uplinks).
type Static struct {
	Pos Position
	H   Topology
}

var _ Locator = Static{}

// PositionAt implements Locator.
func (s Static) PositionAt(time.Duration) Position { return s.Pos }

// Locate implements Locator. A static node is always active; RSUs sit on the
// roadside whether or not their coordinates fall on the road surface.
func (s Static) Locate(time.Duration) (Position, bool) { return s.Pos, true }

// MotionAt implements Kinematic: a static node never moves.
func (s Static) MotionAt(time.Duration) (Position, Velocity, time.Duration) {
	return s.Pos, Velocity{}, 0
}

// OnMotionChange implements Kinematic: a static trajectory never re-bases.
func (s Static) OnMotionChange(func()) {}

// Mobile is a vehicle trajectory: piecewise-constant speed along one road's
// travel axis at a fixed lateral offset. The zero value is unusable;
// construct with NewMobileOnRoad.
type Mobile struct {
	topo Topology
	axis Axis
	// Travel extent along axis; positions clamp to [lo, hi].
	lo, hi float64
	cross  float64 // fixed lateral coordinate

	// Re-based kinematic state: along/speed valid from time base onward.
	base  time.Duration
	along float64
	speed float64 // m/s, always >= 0
	dir   Direction

	exited   bool // permanently left the road (fled or reached the end)
	onChange []func()
}

// NewMobileOnRoad creates a vehicle on one road strip of topo, starting at
// start (which must lie on the road), travelling in dir along the road's
// travel axis at speed m/s from virtual time t0. Positions clamp to the
// road's extent. On the paper's highway the road is h.Roads()[0].
func NewMobileOnRoad(topo Topology, road Road, start Position, dir Direction, speed float64, t0 time.Duration) (*Mobile, error) {
	if topo == nil {
		return nil, fmt.Errorf("mobility: NewMobileOnRoad requires a topology")
	}
	if !road.Rect().Contains(start) {
		return nil, fmt.Errorf("mobility: start %v is off the road", start)
	}
	if speed < 0 {
		return nil, fmt.Errorf("mobility: speed %v must be non-negative", speed)
	}
	if dir != Eastbound && dir != Westbound {
		return nil, fmt.Errorf("mobility: invalid direction %v", dir)
	}
	return &Mobile{
		topo: topo, axis: road.Axis, lo: road.Lo, hi: road.Hi, cross: road.Cross(start),
		base: t0, along: road.Along(start), speed: speed, dir: dir,
	}, nil
}

var (
	_ Locator   = (*Mobile)(nil)
	_ Kinematic = (*Mobile)(nil)
	_ Kinematic = Static{}
)

// Speed returns the current speed in m/s.
func (m *Mobile) Speed() float64 { return m.speed }

// Direction returns the travel direction.
func (m *Mobile) Direction() Direction { return m.dir }

// Axis returns the travel axis (AxisX on the single highway).
func (m *Mobile) Axis() Axis { return m.axis }

// TravelBounds returns the [lo, hi] travel extent along the axis. On the
// single highway this is [0, length].
func (m *Mobile) TravelBounds() (lo, hi float64) { return m.lo, m.hi }

// PositionAt implements Locator. Positions are clamped to the road ends; use
// Locate to detect departure.
func (m *Mobile) PositionAt(t time.Duration) Position {
	return m.clamped(m.rawAlong(t))
}

// clamped is the position at raw travel coordinate a, clamped to the road.
func (m *Mobile) clamped(a float64) Position {
	if a < m.lo {
		a = m.lo
	}
	if a > m.hi {
		a = m.hi
	}
	if m.axis == AxisY {
		return Position{X: m.cross, Y: a}
	}
	return Position{X: a, Y: m.cross}
}

func (m *Mobile) rawAlong(t time.Duration) float64 {
	dt := t - m.base
	if dt < 0 {
		dt = 0 // history before the last re-base is not retained
	}
	return m.along + m.dir.Sign()*m.speed*dt.Seconds()
}

// Locate implements Locator: one trajectory evaluation yields both answers.
func (m *Mobile) Locate(t time.Duration) (Position, bool) {
	a := m.rawAlong(t)
	return m.clamped(a), !m.exited && m.onRoad(a)
}

// onRoad reports whether raw travel coordinate a lies on the road.
func (m *Mobile) onRoad(a float64) bool { return a >= m.lo && a <= m.hi }

// ClusterAt returns the 1-based cluster index the vehicle occupies at t.
func (m *Mobile) ClusterAt(t time.Duration) int {
	return m.topo.ClusterOf(m.PositionAt(t))
}

// MotionAt implements Kinematic.
func (m *Mobile) MotionAt(t time.Duration) (Position, Velocity, time.Duration) {
	pos := m.PositionAt(t)
	if m.exited || m.speed == 0 {
		return pos, Velocity{}, 0
	}
	raw := m.rawAlong(t)
	if raw < m.lo || raw > m.hi {
		// Clamped at a road end: the position froze there permanently (speed
		// is constant, so the raw coordinate never re-enters the extent).
		return pos, Velocity{}, 0
	}
	v := m.dir.Sign() * m.speed
	edge := m.hi
	if v < 0 {
		edge = m.lo
	}
	sec := (edge - raw) / v // >= 0: seconds until the clamp takes over
	horizon := time.Duration(0)
	if ns := sec * float64(time.Second); ns < float64(1<<62) {
		horizon = t + time.Duration(ns)
	}
	vel := Velocity{VX: v}
	if m.axis == AxisY {
		vel = Velocity{VY: v}
	}
	return pos, vel, horizon
}

// OnMotionChange implements Kinematic.
func (m *Mobile) OnMotionChange(fn func()) { m.onChange = append(m.onChange, fn) }

func (m *Mobile) motionChanged() {
	for _, fn := range m.onChange {
		fn()
	}
}

// SetSpeed re-bases the trajectory at time now with a new speed, preserving
// position continuity. Used by evasive attackers that accelerate to flee.
func (m *Mobile) SetSpeed(now time.Duration, speed float64) error {
	if speed < 0 {
		return fmt.Errorf("mobility: speed %v must be non-negative", speed)
	}
	m.rebase(now)
	m.speed = speed
	m.motionChanged()
	return nil
}

// Exit marks the vehicle as permanently departed at time now (it took an
// off-ramp). Its position freezes; Locate reports it off the road afterwards.
func (m *Mobile) Exit(now time.Duration) {
	m.rebase(now)
	m.speed = 0
	m.exited = true
	m.motionChanged()
}

// Exited reports whether Exit has been called.
func (m *Mobile) Exited() bool { return m.exited }

func (m *Mobile) rebase(now time.Duration) {
	a := m.rawAlong(now)
	if a < m.lo {
		a = m.lo
	}
	if a > m.hi {
		a = m.hi
	}
	m.along = a
	m.base = now
}

// TimeToReach returns the virtual time at which the vehicle first reaches
// the given coordinate along its travel axis, and whether it ever does
// (given its current speed and direction, and ignoring the road end).
func (m *Mobile) TimeToReach(coord float64) (time.Duration, bool) {
	if m.exited {
		return 0, false
	}
	dx := coord - m.along
	if dx == 0 {
		return m.base, true
	}
	v := m.dir.Sign() * m.speed
	if v == 0 || dx/v < 0 {
		return 0, false
	}
	return m.base + time.Duration(dx/v*float64(time.Second)), true
}

// DepartureTime returns the virtual time at which the vehicle leaves the
// road by travelling past an end, and whether it ever does.
func (m *Mobile) DepartureTime() (time.Duration, bool) {
	if m.exited {
		return m.base, true
	}
	if m.speed == 0 {
		return 0, false
	}
	edge := m.hi
	if m.dir == Westbound {
		edge = m.lo
	}
	return m.TimeToReach(edge)
}
