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
// Event records are pooled: once an event fires or is stopped, its record
// returns to a free list and backs a later schedule. Pooling is invisible to
// simulation outcomes — ordering is decided by the (time, seq) pair assigned
// at schedule time, never by record identity — and stale Timer handles are
// fenced off by a per-record generation counter. A shared EventPool can be
// threaded through consecutive schedulers (one replication after another on
// the same worker) so a warmed-up free list keeps amortising allocations
// across runs.
package sim

import (
	"fmt"
	"time"
)

// event is a unit of scheduled work. Records are pooled and reused; the gen
// counter invalidates Timer handles left over from a previous life. The
// record's (time, seq) key lives in its heap slot, not here.
type event struct {
	index int    // heap index, -1 once popped or cancelled
	gen   uint64 // incremented on recycle; fences stale Timers
	fn    func()
	afn   func(any) // arg-style callback (AtFunc/AfterFunc); nil for fn events
	arg   any
}

// EventPool recycles event records across schedulers. A pool may be shared
// by any number of schedulers used one after another on the same goroutine
// (e.g. consecutive replications on one sweep worker); it is not safe for
// concurrent use. The zero value is ready to use.
type EventPool struct {
	free []*event
}

// NewEventPool returns an empty pool.
func NewEventPool() *EventPool { return &EventPool{} }

func (p *EventPool) get() *event {
	if n := len(p.free); n > 0 {
		ev := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return ev
	}
	return &event{}
}

// put recycles a record: the generation bump invalidates outstanding Timer
// handles and the callback slots are cleared so pooled records retain
// nothing.
func (p *EventPool) put(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.index = -1
	p.free = append(p.free, ev)
}

// Timer is a handle to a scheduled event that can be cancelled before it
// fires. Timers are small values and may be copied freely; the zero value is
// an inert, already-stopped timer.
type Timer struct {
	s   *Scheduler
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to the scheduled event it was
// created for (the record may since have been recycled for another event).
func (t *Timer) live() bool {
	return t != nil && t.s != nil && t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing: false means the event already ran, was already stopped, or the
// timer is the zero value.
func (t *Timer) Stop() bool {
	if !t.live() {
		if t != nil {
			t.ev = nil
		}
		return false
	}
	ev := t.ev
	t.ev = nil
	t.s.events.remove(ev.index)
	t.s.pool.put(ev)
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

// Pending returns the number of events waiting to fire.
func (s *Scheduler) Pending() int { return len(s.events) }

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
func (s *Scheduler) schedule(t time.Duration) *event {
	if t < s.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now %v)", t, s.now))
	}
	ev := s.ensurePool().get()
	s.events.push(heapEntry{time: t, seq: s.seq, ev: ev})
	s.seq++
	return ev
}

// At schedules fn to run at absolute virtual time t and returns a cancellable
// handle. Scheduling in the past (t < Now) panics: it is always a protocol
// bug, and silently reordering time would mask it.
func (s *Scheduler) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil func")
	}
	ev := s.schedule(t)
	ev.fn = fn
	return Timer{s: s, ev: ev, gen: ev.gen}
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
	ev := s.schedule(t)
	ev.afn = fn
	ev.arg = arg
	return Timer{s: s, ev: ev, gen: ev.gen}
}

// AfterFunc schedules fn(arg) to run d from now. Negative d panics, as with
// At.
func (s *Scheduler) AfterFunc(d time.Duration, fn func(any), arg any) Timer {
	return s.AtFunc(s.now+d, fn, arg)
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

// Step fires the single earliest pending event. It reports whether an event
// fired.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	at, ev := s.events.pop()
	if at < s.now {
		panic("sim: event heap yielded an event in the past")
	}
	s.now = at
	s.executed++
	if s.obs.EventFired != nil {
		s.obs.EventFired(at)
	}
	// Recycle before running the callback: the record's next life (possibly
	// scheduled by this very callback) is fenced from stale Timers by the
	// generation bump, and the callback slots were copied out first.
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	s.ensurePool().put(ev)
	if afn != nil {
		afn(arg)
	} else {
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
// to its record, so sifting compares slots without touching the records.
type heapEntry struct {
	time time.Duration
	seq  uint64 // tie-breaker: FIFO among equal times
	ev   *event
}

// before reports whether a orders ahead of b.
func (a *heapEntry) before(b *heapEntry) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap ordered by (time, seq): the children of slot
// i are slots 4i+1..4i+4. A wider node halves the depth of a binary heap, so
// a pop's sift-down touches half as many levels, and its four children sit in
// adjacent slots. Sifts move a hole rather than swapping, and each moved
// record's index is kept current so Timer.Stop removes eagerly by index and
// Pending stays exact.
type eventHeap []heapEntry

// push adds e to the heap.
func (h *eventHeap) push(e heapEntry) {
	*h = append(*h, e)
	h.up(len(*h)-1, e)
}

// pop removes the minimum slot and returns its time and record.
func (h *eventHeap) pop() (time.Duration, *event) {
	top := (*h)[0]
	h.remove(0)
	return top.time, top.ev
}

// remove deletes slot i, refilling it with the last slot.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old[i].ev.index = -1
	last := old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&old[(i-1)/4]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up places e by moving the hole at slot i toward the root.
func (h eventHeap) up(i int, e heapEntry) {
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = e
	e.ev.index = i
}

// down places e by moving the hole at slot i toward the leaves.
func (h eventHeap) down(i int, e heapEntry) {
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
		h[i].ev.index = i
		i = m
	}
	h[i] = e
	e.ev.index = i
}
