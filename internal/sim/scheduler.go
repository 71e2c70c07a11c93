// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event scheduler with cancellable timers, and seeded
// random-number streams.
//
// All simulated activity runs on a single goroutine inside Scheduler.Run (or
// its bounded variants), so protocol code never needs locks and every run
// with the same seed replays identically. Events scheduled for the same
// instant fire in FIFO order of scheduling, which keeps broadcast fan-out
// deterministic.
//
// Pending events live in a 4-ary min-heap keyed by (time, seq), where seq is
// the scheduling order. The key is stored inline in each heap slot, so
// ordering never dereferences an event record. Because seq is unique,
// (time, seq) is a total order: any correct min-heap pops the same sequence,
// so the heap's shape and arity cannot change a run.
//
// A fan-out post (PostFanout) schedules many copies of one event at once —
// a radio transmission's per-receiver deliveries — in a single record that
// holds one heap slot. The copies take consecutive seqs in post order, exactly
// as that many AtFunc calls would, and the record keeps them sorted by
// (time, seq); its slot is keyed by the earliest copy not yet fired. Firing
// that copy re-keys the slot in place with one sift-down, and the slot leaves
// the heap with its last copy. The smallest slot key is the smallest pending
// copy key, so the copies fire in exactly the order separate events would:
// fan-out changes the heap's depth, never a run. Pending, Executed, NextTime
// and the observer count copies, not records.
//
// Event records are pooled: once an event fires or is stopped, its record
// returns to a free list and backs a later schedule. Pooling is invisible to
// simulation outcomes — ordering is decided by the (time, seq) pair assigned
// at schedule time, never by record identity — and stale Timer handles are
// fenced off by a per-record generation counter. A shared EventPool can be
// threaded through consecutive schedulers (one replication after another on
// the same worker) so a warmed-up free list keeps amortising allocations
// across runs; a scheduler done with a shared pool calls Release, which
// hands back the records still pending so no run leaks them.
//
// Records live in fixed-size pages of the pool and are addressed by an
// int32 id. Pages never move, so growing the pool copies no record and a
// held *event stays valid. Heap slots and fan-out copies carry record ids
// and per-copy slots instead of pointers, and a Timer names its record by
// id: sifting the heap and sorting a fan-out move plain words, which the
// garbage collector never has to see.
package sim

import (
	"fmt"
	"time"
)

// event is a unit of scheduled work. Records are pooled and reused; the gen
// counter invalidates Timer handles left over from a previous life. The
// record's (time, seq) key lives in its heap slot, not here.
type event struct {
	index int32  // heap index, -1 once popped or cancelled
	next  int32  // fan-out records: index of the earliest unfired copy
	gen   uint64 // incremented on recycle; fences stale Timers
	fn    func()
	afn   func(any) // arg-style callback (AtFunc/AfterFunc); nil for fn events
	arg   any       // afn's argument, or the shared argument of a fan-out

	// Fan-out records only: ffn(arg, copy.slot) runs once per copy. copies
	// are sorted by (time, seq); the slice keeps its capacity across
	// recycles.
	ffn    func(shared any, slot int32)
	copies []fanCopy
}

// fanCopy is one copy of a fan-out record with its own key and slot.
type fanCopy struct {
	time time.Duration
	seq  uint64
	slot int32
}

// Copy is one copy of a fan-out post: its absolute fire time and the slot
// its callback receives. A slot is the poster's own index (the radio passes
// a receiver's attach index), so a copy holds no pointer.
type Copy struct {
	At   time.Duration
	Slot int32
}

// Records are allocated a page at a time.
const (
	pageBits = 8
	pageSize = 1 << pageBits
)

// EventPool recycles event records across schedulers. A pool may be shared
// by any number of schedulers used one after another on the same goroutine
// (e.g. consecutive replications on one sweep worker); it is not safe for
// concurrent use. The zero value is ready to use.
type EventPool struct {
	pages []*[pageSize]event
	n     int32   // records allocated: ids 0..n-1
	free  []int32 // ids of recycled records
}

// NewEventPool returns an empty pool.
func NewEventPool() *EventPool { return &EventPool{} }

// Records returns how many event records the pool has allocated, pending
// and free alike. A pool whose schedulers all Release stops growing once
// it covers the largest queue they held.
func (p *EventPool) Records() int { return int(p.n) }

// at returns record id. The pointer stays valid for the pool's life.
func (p *EventPool) at(id int32) *event {
	return &p.pages[id>>pageBits][id&(pageSize-1)]
}

func (p *EventPool) get() int32 {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id
	}
	id := p.n
	if id&(pageSize-1) == 0 {
		p.pages = append(p.pages, new([pageSize]event))
	}
	p.n++
	return id
}

// put recycles record id: the generation bump invalidates outstanding Timer
// handles and the callback slots are cleared so pooled records retain
// nothing. A record uses one or two of the slots; the others are already
// nil, and skipping their stores skips their write barriers.
func (p *EventPool) put(id int32) {
	ev := p.at(id)
	ev.gen++
	if ev.fn != nil {
		ev.fn = nil
	}
	if ev.afn != nil {
		ev.afn = nil
	}
	if ev.arg != nil {
		ev.arg = nil
	}
	if ev.ffn != nil {
		ev.ffn = nil
	}
	ev.copies = ev.copies[:0]
	ev.next = 0
	ev.index = -1
	p.free = append(p.free, id)
}

// Timer is a handle to a scheduled event that can be cancelled before it
// fires. Timers are small values and may be copied freely; the zero value is
// an inert, already-stopped timer.
type Timer struct {
	s   *Scheduler
	gen uint64
	id  int32
}

// live reports whether the handle still refers to the scheduled event it was
// created for (the record may since have been recycled for another event).
func (t *Timer) live() bool {
	if t == nil || t.s == nil {
		return false
	}
	ev := t.s.pool.at(t.id)
	return ev.gen == t.gen && ev.index >= 0
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing: false means the event already ran, was already stopped, or the
// timer is the zero value.
func (t *Timer) Stop() bool {
	if !t.live() {
		if t != nil {
			t.s = nil
		}
		return false
	}
	s := t.s
	t.s = nil
	s.events.remove(s.pool, int(s.pool.at(t.id).index))
	s.pending--
	s.pool.put(t.id)
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool { return t.live() }

// Observer receives scheduler lifecycle callbacks. It exists for runtime
// invariant checking in tests (see InvariantChecker); nil fields are skipped,
// and an absent observer costs one nil check per event.
type Observer struct {
	// RunStarted fires when Run/RunUntil/RunFor begins a run loop.
	RunStarted func(at time.Duration)
	// EventFired fires as each event is popped, before its callback runs.
	EventFired func(at time.Duration)
	// Stopped fires when Stop is called from inside an event.
	Stopped func(at time.Duration)
}

// Scheduler is a discrete-event scheduler. The zero value is ready to use,
// with the clock at zero and a private event pool.
type Scheduler struct {
	now       time.Duration
	seq       uint64
	events    eventHeap
	pending   int // copies waiting to fire; a fan-out slot holds several
	executed  uint64
	running   bool
	stopped   bool
	idleHooks []func()
	obs       Observer
	pool      *EventPool
	ownPool   EventPool // backs pool when no shared pool was supplied
}

// NewScheduler returns an empty scheduler with the clock at zero and a
// private event pool.
func NewScheduler() *Scheduler { return &Scheduler{} }

// NewSchedulerWithPool returns a scheduler drawing event records from pool,
// so a worker running many short-lived schedulers in sequence reuses one
// warmed-up free list instead of re-allocating per run. A nil pool behaves
// like NewScheduler.
func NewSchedulerWithPool(pool *EventPool) *Scheduler {
	return &Scheduler{pool: pool}
}

// ensurePool lazily wires the private pool so the zero Scheduler keeps
// working.
func (s *Scheduler) ensurePool() *EventPool {
	if s.pool == nil {
		s.pool = &s.ownPool
	}
	return s.pool
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Executed returns the number of events that have fired so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending returns the number of events waiting to fire, counting every
// unfired copy of a fan-out post.
func (s *Scheduler) Pending() int { return s.pending }

// NextTime returns the time of the earliest pending event. ok is false when
// the queue is empty. The sharded executor uses it to pick conservative
// window bounds without disturbing the queue.
func (s *Scheduler) NextTime() (t time.Duration, ok bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].time, true
}

// schedule allocates (or recycles) a record for time t and pushes it.
func (s *Scheduler) schedule(t time.Duration) (int32, *event) {
	if t < s.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now %v)", t, s.now))
	}
	p := s.ensurePool()
	id := p.get()
	s.events.push(p, heapEntry{time: t, seq: s.seq, id: id})
	s.seq++
	s.pending++
	return id, p.at(id)
}

// At schedules fn to run at absolute virtual time t and returns a cancellable
// handle. Scheduling in the past (t < Now) panics: it is always a protocol
// bug, and silently reordering time would mask it.
func (s *Scheduler) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil func")
	}
	id, ev := s.schedule(t)
	ev.fn = fn
	return Timer{s: s, id: id, gen: ev.gen}
}

// After schedules fn to run d from now. Negative d panics, as with At.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// AtFunc schedules fn(arg) to run at absolute virtual time t. It is the
// allocation-free alternative to At for hot paths: a caller keeps one fn for
// the lifetime of the component and threads per-event state through arg
// (typically a pointer into its own free list), so no closure is created per
// event.
func (s *Scheduler) AtFunc(t time.Duration, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: AtFunc called with nil func")
	}
	id, ev := s.schedule(t)
	ev.afn = fn
	ev.arg = arg
	return Timer{s: s, id: id, gen: ev.gen}
}

// AfterFunc schedules fn(arg) to run d from now. Negative d panics, as with
// At.
func (s *Scheduler) AfterFunc(d time.Duration, fn func(any), arg any) Timer {
	return s.AtFunc(s.now+d, fn, arg)
}

// PostFanout schedules fn(shared, c.Slot) at each copy's time c.At. The
// copies take consecutive seqs in slice order, exactly as len(copies)
// consecutive AtFunc calls would, so they fire in the same order, but share
// one pooled record and one heap slot. copies is not retained. Posts are
// fire-and-forget: no copy can be stopped. A copy in the past panics, as
// with At.
func (s *Scheduler) PostFanout(fn func(shared any, slot int32), shared any, copies []Copy) {
	if fn == nil {
		panic("sim: PostFanout called with nil func")
	}
	if len(copies) == 0 {
		return
	}
	for _, c := range copies {
		if c.At < s.now {
			panic(fmt.Sprintf("sim: PostFanout copy at %v is in the past (now %v)", c.At, s.now))
		}
	}
	p := s.ensurePool()
	id := p.get()
	ev := p.at(id)
	ev.ffn, ev.arg = fn, shared
	// Insertion sort by time: seqs ascend in post order, so the sort is by
	// (time, seq) when stable, and transmissions arrive nearly sorted.
	cs := ev.copies[:0]
	if cap(cs) < len(copies) {
		cs = make([]fanCopy, 0, len(copies))
	}
	for _, c := range copies {
		e := fanCopy{time: c.At, seq: s.seq, slot: c.Slot}
		s.seq++
		cs = append(cs, e)
		i := len(cs) - 1
		for ; i > 0 && cs[i-1].time > e.time; i-- {
			cs[i] = cs[i-1]
		}
		cs[i] = e
	}
	ev.copies = cs
	s.pending += len(cs)
	s.events.push(p, heapEntry{time: cs[0].time, seq: cs[0].seq, id: id})
}

// Release returns every pending record, fan-out copies included, to the
// pool and empties the queue: Pending becomes 0 and every outstanding Timer
// goes inert. The clock, the seq counter and the idle hooks are kept, so
// later schedules still fire in (time, seq) order. A world built on a shared
// pool calls it when it is done, so the events it abandons back the next
// world's schedules instead of staying out of the pool for good.
func (s *Scheduler) Release() {
	for _, e := range s.events {
		s.pool.put(e.id)
	}
	s.events = s.events[:0]
	s.pending = 0
}

// Stop makes the current Run/RunUntil/RunFor call return after the event in
// progress completes. It may only be called from inside an event callback.
func (s *Scheduler) Stop() {
	s.stopped = true
	if s.obs.Stopped != nil {
		s.obs.Stopped(s.now)
	}
}

// Observe installs a lifecycle observer (replacing any previous one).
func (s *Scheduler) Observe(o Observer) { s.obs = o }

// OnIdle registers fn to run when the event queue drains while Run is
// active. Hooks may schedule new events; they run in registration order each
// time the queue empties.
func (s *Scheduler) OnIdle(fn func()) {
	if fn == nil {
		panic("sim: OnIdle called with nil func")
	}
	s.idleHooks = append(s.idleHooks, fn)
}

// Step fires the single earliest pending event (or fan-out copy). It
// reports whether one fired.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	at, id := s.events[0].time, s.events[0].id
	if at < s.now {
		panic("sim: event heap yielded an event in the past")
	}
	// Settle the heap before running the callback, which may schedule. A
	// fan-out record with copies left stays in its slot, re-keyed to its
	// next copy; any other record is recycled: its next life (possibly
	// scheduled by this very callback) is fenced from stale Timers by the
	// generation bump, and the callback slots were copied out first.
	p := s.pool
	ev := p.at(id)
	fn, afn, ffn, arg := ev.fn, ev.afn, ev.ffn, ev.arg
	var slot int32
	done := true
	if ffn != nil {
		slot = ev.copies[ev.next].slot
		ev.next++
		if int(ev.next) < len(ev.copies) {
			n := &ev.copies[ev.next]
			s.events.down(p, 0, heapEntry{time: n.time, seq: n.seq, id: id})
			done = false
		}
	}
	if done {
		s.events.remove(p, 0)
		p.put(id)
	}
	s.pending--
	s.now = at
	s.executed++
	if s.obs.EventFired != nil {
		s.obs.EventFired(at)
	}
	switch {
	case ffn != nil:
		ffn(arg, slot)
	case afn != nil:
		afn(arg)
	default:
		fn()
	}
	return true
}

// Run fires events until the queue is empty (after idle hooks have had a
// chance to refill it) or Stop is called.
func (s *Scheduler) Run() {
	s.RunUntil(maxDuration)
}

const maxDuration = time.Duration(1<<63 - 1)

// RunUntil fires events whose time is <= deadline, advancing the clock to
// exactly deadline when it returns (unless Stop was called first). Events
// scheduled after the deadline remain pending.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	if s.running {
		panic("sim: Run re-entered from inside an event")
	}
	s.running = true
	s.stopped = false
	if s.obs.RunStarted != nil {
		s.obs.RunStarted(s.now)
	}
	defer func() { s.running = false }()

	for !s.stopped {
		if len(s.events) == 0 {
			for _, hook := range s.idleHooks {
				hook()
			}
			if len(s.events) == 0 { // hooks added nothing; truly drained
				break
			}
			continue
		}
		if s.events[0].time > deadline {
			break
		}
		s.Step()
	}
	if !s.stopped && deadline != maxDuration && s.now < deadline {
		s.now = deadline
	}
}

// RunFor runs for d of virtual time from the current clock.
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.now + d)
}

// heapEntry is one heap slot: the event's (time, seq) key stored inline next
// to its record's id, so sifting compares slots without touching the
// records and moves no pointer.
type heapEntry struct {
	time time.Duration
	seq  uint64 // tie-breaker: FIFO among equal times
	id   int32
}

// before reports whether a orders ahead of b.
func (a *heapEntry) before(b *heapEntry) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap ordered by (time, seq): the children of slot
// i are slots 4i+1..4i+4. A wider node halves the depth of a binary heap, so
// a pop's sift-down touches half as many levels, and its four children sit in
// adjacent slots. Sifts move a hole rather than swapping, and each moved
// record's index in pool is kept current so Timer.Stop removes eagerly by
// index and Pending stays exact.
type eventHeap []heapEntry

// push adds e to the heap.
func (h *eventHeap) push(pool *EventPool, e heapEntry) {
	*h = append(*h, e)
	h.up(pool, len(*h)-1, e)
}

// remove deletes slot i, refilling it with the last slot.
func (h *eventHeap) remove(pool *EventPool, i int) {
	old := *h
	n := len(old) - 1
	pool.at(old[i].id).index = -1
	last := old[n]
	*h = (*h)[:n] // a self-reslice stores only the length
	if i == n {
		return
	}
	if i > 0 && last.before(&old[(i-1)/4]) {
		h.up(pool, i, last)
	} else {
		h.down(pool, i, last)
	}
}

// up places e by moving the hole at slot i toward the root.
func (h eventHeap) up(pool *EventPool, i int, e heapEntry) {
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		pool.at(h[i].id).index = int32(i)
		i = p
	}
	h[i] = e
	pool.at(e.id).index = int32(i)
}

// down places e by moving the hole at slot i toward the leaves.
func (h eventHeap) down(pool *EventPool, i int, e heapEntry) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := min(c+4, n)
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		pool.at(h[i].id).index = int32(i)
		i = m
	}
	h[i] = e
	pool.at(e.id).index = int32(i)
}
