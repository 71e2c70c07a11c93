package radio

import (
	"math"
	"slices"
	"sort"
	"time"

	"blackdp/internal/mobility"
	"blackdp/internal/wire"
)

// cellIndex is the medium's grid-hash spatial index: devices are bucketed
// into square cells of side txRange, so resolving a broadcast's receivers is
// a 9-cell sweep plus the exact distance filter instead of a scan over every
// attached interface. Unicasts resolve through a pseudonym map.
//
// Determinism contract: the index must be byte-for-byte invisible. The linear
// scan visits devices in attach order and draws per-receiver RNG only for
// devices that pass the same-device/active/addressee/range checks; any device
// outside the 9-cell sweep is provably out of range (cell side = txRange), so
// the linear path draws no RNG for it either. Buckets keep attach order and
// the sweep merges them by attach sequence, so the surviving candidates are
// considered in exactly the linear scan's order. WithLinearScan retains the
// reference path; the differential suite holds the two byte-identical.
//
// Re-bucketing is incremental: locators implementing mobility.Kinematic
// report analytic motion, and the index schedules each device's next cell
// crossing on a min-heap, processed lazily at query time. Crossing times are
// nudged early (an entry may fire before the true crossing, never after), so
// between refreshes every bucket provably equals the cell of the device's
// current position. Out-of-band trajectory changes (SetSpeed, Exit) mark the
// device dirty via the Kinematic motion-change callback. Locators without
// analytic motion fall into an unindexed list scanned on every query — exact,
// just not indexed.
//
// Buckets hold attach seqs, not pointers: a seq is the device's index in
// Medium.devices, which never shrinks. Merging and copying them moves plain
// words, which the garbage collector never has to see.
type cellIndex struct {
	size  float64
	cells map[cellKey][]int32          // bucketed devices' seqs, ascending
	byID  map[wire.NodeID][]*Interface // unicast fast path, ascending attach seq
	heap  []crossEntry                 // pending cell-crossing times
	dirty []*Interface                 // trajectory changed since last refresh
	unind []int32                      // non-Kinematic locators' seqs, ascending
}

// collectScratch is one caller's query scratch, reused so the hot path
// allocates nothing steady-state. Sharded runs query the index from several
// goroutines at once (read-only between barrier refreshes), so each shard
// context owns its own scratch.
type collectScratch struct {
	lists [10][]int32 // the 3×3 sweep's non-empty buckets, then unind
	cur   [10]int     // merge cursor into each list
	cand  []int32     // merged candidate seqs
}

type cellKey struct{ x, y int64 }

// crossEntry schedules one device's re-bucketing. Entries are invalidated
// lazily: a generation mismatch means the device was re-placed since.
type crossEntry struct {
	at  time.Duration
	ifc *Interface
	gen uint64
}

func newCellIndex(size float64) *cellIndex {
	return &cellIndex{
		size:  size,
		cells: make(map[cellKey][]int32),
		byID:  make(map[wire.NodeID][]*Interface),
	}
}

// keyOf maps a position to its cell, clamping astronomical coordinates so
// float-to-int conversion stays defined.
func (x *cellIndex) keyOf(p mobility.Position) cellKey {
	return cellKey{x: cellCoord(p.X, x.size), y: cellCoord(p.Y, x.size)}
}

func cellCoord(v, size float64) int64 {
	f := math.Floor(v / size)
	switch {
	case math.IsNaN(f):
		return 0
	case f >= 9.2e18:
		return math.MaxInt64 - 1
	case f <= -9.2e18:
		return math.MinInt64 + 1
	}
	return int64(f)
}

// add registers a freshly attached interface.
func (x *cellIndex) add(ifc *Interface, now time.Duration) {
	// Attach sequence numbers ascend, so appending keeps byID sorted.
	x.byID[ifc.id] = append(x.byID[ifc.id], ifc)
	if kin, ok := ifc.loc.(mobility.Kinematic); ok {
		ifc.kin = kin
		kin.OnMotionChange(func() { x.markDirty(ifc) })
		x.place(ifc, now)
	} else {
		x.unind = append(x.unind, ifc.seq)
	}
}

// remove unregisters a detached interface.
func (x *cellIndex) remove(ifc *Interface) {
	x.removeByID(ifc.id, ifc)
	if ifc.kin != nil {
		if ifc.inCell {
			x.removeFromCell(ifc)
		}
		ifc.gen++ // invalidate pending heap entries
	} else {
		x.unind = removeSeq(x.unind, ifc.seq)
	}
}

// rename moves an interface between pseudonyms (certificate renewal).
func (x *cellIndex) rename(ifc *Interface, old, id wire.NodeID) {
	x.removeByID(old, ifc)
	s := x.byID[id]
	pos := sort.Search(len(s), func(k int) bool { return s[k].seq > ifc.seq })
	s = append(s, nil)
	copy(s[pos+1:], s[pos:])
	s[pos] = ifc
	x.byID[id] = s
}

func (x *cellIndex) removeByID(id wire.NodeID, ifc *Interface) {
	s := removeIfc(x.byID[id], ifc)
	if len(s) == 0 {
		delete(x.byID, id)
	} else {
		x.byID[id] = s
	}
}

func removeIfc(s []*Interface, ifc *Interface) []*Interface {
	for k, d := range s {
		if d == ifc {
			copy(s[k:], s[k+1:])
			s[len(s)-1] = nil
			return s[:len(s)-1]
		}
	}
	return s
}

// removeSeq deletes seq from an ascending bucket.
func removeSeq(s []int32, seq int32) []int32 {
	if k, ok := slices.BinarySearch(s, seq); ok {
		return slices.Delete(s, k, k+1)
	}
	return s
}

func (x *cellIndex) markDirty(ifc *Interface) {
	if !ifc.dirty && !ifc.detached {
		ifc.dirty = true
		x.dirty = append(x.dirty, ifc)
	}
}

// place re-buckets ifc for its position at now and schedules the next
// crossing. The scheduled time is nudged early by a margin safely above the
// analytic solution's float error, so an entry never fires after the true
// crossing — the invariant the 9-cell sweep's exactness rests on.
func (x *cellIndex) place(ifc *Interface, now time.Duration) {
	pos, vel, horizon := ifc.kin.MotionAt(now)
	key := x.keyOf(pos)
	if !ifc.inCell || key != ifc.cell {
		if ifc.inCell {
			x.removeFromCell(ifc)
		}
		x.insertIntoCell(ifc, key)
	}
	ifc.gen++
	next := x.crossingTime(pos, vel, key, now)
	if horizon != 0 && (next == 0 || horizon < next) {
		next = horizon
	}
	if next == 0 {
		return // motionless until a dirty notification
	}
	next -= next>>32 + 1 // fire early, never late
	if next <= now {
		next = now + 1
	}
	x.heapPush(crossEntry{at: next, ifc: ifc, gen: ifc.gen})
}

// crossingTime returns when a device moving at vel from pos first leaves
// cell key (0 = never).
func (x *cellIndex) crossingTime(pos mobility.Position, vel mobility.Velocity, key cellKey, now time.Duration) time.Duration {
	dt := math.Inf(1)
	switch {
	case vel.VX > 0:
		dt = (float64(key.x+1)*x.size - pos.X) / vel.VX
	case vel.VX < 0:
		dt = (pos.X - float64(key.x)*x.size) / -vel.VX
	}
	switch {
	case vel.VY > 0:
		dt = math.Min(dt, (float64(key.y+1)*x.size-pos.Y)/vel.VY)
	case vel.VY < 0:
		dt = math.Min(dt, (pos.Y-float64(key.y)*x.size)/-vel.VY)
	}
	if math.IsInf(dt, 1) || math.IsNaN(dt) {
		return 0
	}
	if dt < 0 {
		dt = 0
	}
	ns := dt * float64(time.Second)
	if ns >= float64(1<<62) {
		return 0
	}
	return now + time.Duration(ns)
}

func (x *cellIndex) insertIntoCell(ifc *Interface, key cellKey) {
	s := x.cells[key]
	pos, _ := slices.BinarySearch(s, ifc.seq)
	x.cells[key] = slices.Insert(s, pos, ifc.seq)
	ifc.cell = key
	ifc.inCell = true
}

func (x *cellIndex) removeFromCell(ifc *Interface) {
	// Empty buckets stay in the map so their capacity is reused when traffic
	// re-enters the cell.
	x.cells[ifc.cell] = removeSeq(x.cells[ifc.cell], ifc.seq)
	ifc.inCell = false
}

// refresh brings every bucket up to date with positions at now: dirty
// trajectories first, then all crossings due. place always schedules strictly
// beyond now, so both loops terminate.
func (x *cellIndex) refresh(now time.Duration) {
	for len(x.dirty) > 0 {
		n := len(x.dirty) - 1
		ifc := x.dirty[n]
		x.dirty[n] = nil
		x.dirty = x.dirty[:n]
		ifc.dirty = false
		if !ifc.detached {
			x.place(ifc, now)
		}
	}
	for len(x.heap) > 0 && x.heap[0].at <= now {
		e := x.heapPop()
		if e.gen != e.ifc.gen || e.ifc.detached {
			continue
		}
		x.place(e.ifc, now)
	}
}

// collectInto returns the candidate receivers for a transmission from p: the
// seqs of the devices in the 3×3 cell sweep around p plus every unindexed
// device, merged into ascending attach order (the linear scan's iteration
// order). It only reads the index — bucket mutation happens in refresh — so
// concurrent callers are safe as long as each brings its own scratch; the
// returned slice is that scratch, valid until its next collectInto.
func (x *cellIndex) collectInto(s *collectScratch, p mobility.Position) []int32 {
	k := x.keyOf(p)
	n := 0
	for dy := int64(-1); dy <= 1; dy++ {
		for dx := int64(-1); dx <= 1; dx++ {
			if b := x.cells[cellKey{x: k.x + dx, y: k.y + dy}]; len(b) > 0 {
				s.lists[n], s.cur[n] = b, 0
				n++
			}
		}
	}
	if len(x.unind) > 0 {
		s.lists[n], s.cur[n] = x.unind, 0
		n++
	}
	// A k-way merge on fixed cursors: the lists stay put, only the cursors
	// advance.
	ls, cur := s.lists[:n], s.cur[:n]
	out := s.cand[:0]
	for {
		best, low := -1, int32(0)
		for li, l := range ls {
			if c := cur[li]; c < len(l) && (best < 0 || l[c] < low) {
				best, low = li, l[c]
			}
		}
		if best < 0 {
			break
		}
		out = append(out, low)
		cur[best]++
	}
	s.cand = out
	return out
}

// --- crossing-time min-heap ----------------------------------------------

func (x *cellIndex) heapPush(e crossEntry) {
	x.heap = append(x.heap, e)
	i := len(x.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if x.heap[p].at <= x.heap[i].at {
			break
		}
		x.heap[i], x.heap[p] = x.heap[p], x.heap[i]
		i = p
	}
}

func (x *cellIndex) heapPop() crossEntry {
	top := x.heap[0]
	n := len(x.heap) - 1
	x.heap[0] = x.heap[n]
	x.heap[n] = crossEntry{}
	x.heap = x.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && x.heap[l].at < x.heap[s].at {
			s = l
		}
		if r < n && x.heap[r].at < x.heap[s].at {
			s = r
		}
		if s == i {
			break
		}
		x.heap[i], x.heap[s] = x.heap[s], x.heap[i]
		i = s
	}
	return top
}
