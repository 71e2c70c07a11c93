package aodv

import (
	"cmp"
	"math"
	"slices"
	"time"

	"blackdp/internal/wire"
)

// Route is a forwarding-table entry.
type Route struct {
	Dest     wire.NodeID
	NextHop  wire.NodeID
	HopCount uint8
	Seq      wire.SeqNum
	Expiry   time.Duration
	Valid    bool
}

// fresher reports whether a candidate (seq, hops) should replace the entry,
// per AODV: strictly higher sequence number wins; an equal sequence number
// wins on fewer hops; an invalid entry is always replaceable.
func (r *Route) fresher(seq wire.SeqNum, hops uint8) bool {
	if !r.Valid {
		return true
	}
	if seq != r.Seq {
		return seq > r.Seq
	}
	return hops < r.HopCount
}

// table is the routing table plus neighbour and flood-duplicate state.
type table struct {
	routes    map[wire.NodeID]*Route
	neighbors map[wire.NodeID]time.Duration // last heard
	// oldest bounds every neighbour's last-heard time from below: it is
	// the exact minimum after each stale scan, and since time never runs
	// back heard lowers it only when no neighbour was known. A maintenance
	// round in which nothing can be stale skips its scan.
	oldest time.Duration
	floods map[floodKey]struct{}
	// floodLog holds the flood-cache keys in insertion order, which is
	// first-seen time order: prune expires from its front.
	floodLog []floodSeen
}

type floodKey struct {
	origin wire.NodeID
	id     uint32
}

type floodSeen struct {
	key  floodKey
	seen time.Duration
}

func newTable() *table {
	return &table{
		routes:    make(map[wire.NodeID]*Route),
		neighbors: make(map[wire.NodeID]time.Duration),
		oldest:    math.MaxInt64,
		floods:    make(map[floodKey]struct{}),
	}
}

// lookup returns the valid, unexpired route to dest, if any.
func (t *table) lookup(dest wire.NodeID, now time.Duration) (Route, bool) {
	r, ok := t.routes[dest]
	if !ok || !r.Valid || r.Expiry <= now {
		return Route{}, false
	}
	return *r, true
}

// update installs or refreshes a route if the candidate is fresher,
// reporting whether the table changed. Per RFC 3561, an invalid or expired
// entry is always replaceable regardless of its recorded sequence number —
// otherwise a black hole's inflated sequence number would veto legitimate
// routes long after its forged entry lapsed.
func (t *table) update(dest, nextHop wire.NodeID, hops uint8, seq wire.SeqNum, now, expiry time.Duration) bool {
	r, ok := t.routes[dest]
	if !ok {
		t.routes[dest] = &Route{Dest: dest, NextHop: nextHop, HopCount: hops, Seq: seq, Expiry: expiry, Valid: true}
		return true
	}
	live := r.Valid && r.Expiry > now
	if live && !r.fresher(seq, hops) {
		// Same-or-staler information still refreshes the timer when it
		// confirms the installed next hop (any traffic arriving through
		// that hop proves the link is alive).
		if r.NextHop == nextHop && expiry > r.Expiry {
			r.Expiry = expiry
		}
		return false
	}
	r.NextHop = nextHop
	r.HopCount = hops
	r.Seq = seq
	r.Expiry = expiry
	r.Valid = true
	return true
}

// touch extends a route's lifetime on active use.
func (t *table) touch(dest wire.NodeID, expiry time.Duration) {
	if r, ok := t.routes[dest]; ok && r.Valid && expiry > r.Expiry {
		r.Expiry = expiry
	}
}

// invalidate marks the route to dest broken, returning the stale entry and
// whether anything changed.
func (t *table) invalidate(dest wire.NodeID) (Route, bool) {
	r, ok := t.routes[dest]
	if !ok || !r.Valid {
		return Route{}, false
	}
	r.Valid = false
	return *r, true
}

// invalidateVia breaks every valid route whose next hop is via, returning
// the broken entries sorted by destination: callers advertise them in RERRs
// and fire callbacks in this order, so it must not follow map iteration.
func (t *table) invalidateVia(via wire.NodeID) []Route {
	var broken []Route
	for _, r := range t.routes {
		if r.Valid && r.NextHop == via {
			r.Valid = false
			broken = append(broken, *r)
		}
	}
	slices.SortFunc(broken, func(a, b Route) int { return cmp.Compare(a.Dest, b.Dest) })
	return broken
}

// heard records traffic from a neighbour.
func (t *table) heard(n wire.NodeID, now time.Duration) {
	t.neighbors[n] = now
	t.oldest = min(t.oldest, now)
}

// appendStale appends neighbours silent past the timeout to dst in
// ascending ID order and forgets them, returning the extended slice so the
// caller can reuse one scratch buffer across maintenance rounds. While the
// oldest last-heard time is within the timeout nothing can be stale, and
// the neighbour map is not scanned.
func (t *table) appendStale(dst []wire.NodeID, now, timeout time.Duration) []wire.NodeID {
	if now-t.oldest < timeout {
		return dst
	}
	start := len(dst)
	t.oldest = math.MaxInt64
	for n, last := range t.neighbors {
		if now-last >= timeout {
			dst = append(dst, n)
			delete(t.neighbors, n)
		} else {
			t.oldest = min(t.oldest, last)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// seenFlood records a flood identifier, reporting whether it was already
// known (a duplicate to suppress).
func (t *table) seenFlood(origin wire.NodeID, id uint32, now time.Duration) bool {
	k := floodKey{origin: origin, id: id}
	if _, dup := t.floods[k]; dup {
		return true
	}
	t.floods[k] = struct{}{}
	t.floodLog = append(t.floodLog, floodSeen{key: k, seen: now})
	return false
}

// prune drops expired invalid routes and aged flood-cache entries.
func (t *table) prune(now, floodTTL time.Duration) {
	for dest, r := range t.routes {
		if r.Expiry+floodTTL <= now && (!r.Valid || r.Expiry <= now) {
			delete(t.routes, dest)
		}
	}
	n := 0
	for n < len(t.floodLog) && now-t.floodLog[n].seen >= floodTTL {
		delete(t.floods, t.floodLog[n].key)
		n++
	}
	if n == len(t.floodLog) {
		t.floodLog = t.floodLog[:0] // reuse the array once drained
	} else {
		t.floodLog = t.floodLog[n:]
	}
}
