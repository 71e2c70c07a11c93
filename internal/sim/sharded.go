package sim

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Sharded executes one simulation across several event-queue shards with
// conservative time-window synchronization — classic conservative parallel
// discrete-event simulation, specialised to this repository's geometry:
// cluster strips only interact through the radio channel, and every frame
// needs at least `lookahead` of virtual time on the air, so a window of that
// length can run on every shard concurrently without any shard seeing an
// event out of order.
//
// Shard 0 is the *anchor*: it runs solo at the head of every window, before
// the other shards start, so components that touch run-global state (trust
// store, cluster directory, detection tally, wired backbone) can live there
// and stay lock-free — their writes are sequenced against every other
// shard's reads by the window barrier itself. Shards 1..n-1 then execute the
// same window concurrently on the worker pool.
//
// Events crossing shards travel through per-shard mailboxes: a PostTo from
// shard A to shard B during a window is buffered on A and merged into B's
// queue at the barrier, in (time, source shard, post order) order. The merge
// order is a pure function of the simulation, never of goroutine scheduling,
// which is what makes a sharded run byte-identical for any worker count —
// workers decide only which OS thread executes a shard, never what the shard
// observes. The determinism wall in internal/scenario holds exactly this.
//
// Lookahead is a hard contract: a cross-shard post must land strictly after
// the window in which it was made. Posts that would violate it panic — a
// violation means the lookahead was derived from a wrong lower bound on
// cross-shard latency, which would silently corrupt event ordering.
type Sharded struct {
	lookahead time.Duration
	shards    []*ShardRuntime
	workers   int

	now  time.Duration // virtual time the run has been driven to
	we   time.Duration // inclusive end of the window in flight
	mail []mailItem    // barrier merge scratch

	onWindow []func(start, end time.Duration)

	work chan *ShardRuntime
	wg   sync.WaitGroup
}

// ShardRuntime is one shard's scheduling handle. It implements Runtime (so
// agents built on a shard schedule onto that shard transparently) and
// CrossPoster (so the radio layer can route deliveries to another device's
// home shard).
type ShardRuntime struct {
	x      *Sharded
	id     int
	s      *Scheduler
	outbox []mailItem
}

// mailItem is one buffered cross-shard post.
type mailItem struct {
	to  int
	src int
	seq int
	at  time.Duration
	fn  func(any)
	arg any
}

// NewSharded builds a sharded executor with `shards` shards (anchor
// included, so shards >= 2 for any actual sharding) and a worker pool of
// `workers` goroutines for the non-anchor shards. The lookahead must be a
// lower bound on the virtual latency of every cross-shard interaction.
func NewSharded(lookahead time.Duration, shards, workers int) *Sharded {
	if lookahead <= 0 {
		panic("sim: sharded lookahead must be positive")
	}
	if shards < 1 {
		panic("sim: sharded needs at least the anchor shard")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > shards-1 && shards > 1 {
		workers = shards - 1
	}
	x := &Sharded{lookahead: lookahead, workers: workers}
	for i := 0; i < shards; i++ {
		x.shards = append(x.shards, &ShardRuntime{x: x, id: i, s: NewScheduler()})
	}
	return x
}

// Shard returns shard i's runtime (0 = anchor).
func (x *Sharded) Shard(i int) *ShardRuntime { return x.shards[i] }

// Anchor returns shard 0, the solo-slot shard for run-global state.
func (x *Sharded) Anchor() *ShardRuntime { return x.shards[0] }

// Shards returns the shard count, anchor included.
func (x *Sharded) Shards() int { return len(x.shards) }

// Lookahead returns the conservative window length.
func (x *Sharded) Lookahead() time.Duration { return x.lookahead }

// Now returns the virtual time the executor has been driven to.
func (x *Sharded) Now() time.Duration { return x.now }

// Executed returns the total number of events fired across all shards.
func (x *Sharded) Executed() uint64 {
	var n uint64
	for _, sh := range x.shards {
		n += sh.s.Executed()
	}
	return n
}

// Pending returns the total number of events waiting across all shards.
func (x *Sharded) Pending() int {
	var n int
	for _, sh := range x.shards {
		n += sh.s.Pending()
	}
	return n
}

// OnWindow registers fn to run on the orchestrating goroutine at the start
// of every window, after the bounds [start, end] are fixed and before any
// shard (anchor included) executes. Shared read-mostly structures refresh
// themselves here — the radio spatial index brings its buckets up to the
// window end — so the window itself runs them read-only.
func (x *Sharded) OnWindow(fn func(start, end time.Duration)) {
	if fn == nil {
		panic("sim: OnWindow called with nil func")
	}
	x.onWindow = append(x.onWindow, fn)
}

// RunFor advances the whole sharded run by d of virtual time.
func (x *Sharded) RunFor(d time.Duration) { x.RunUntil(x.now + d) }

// RunUntil fires events on every shard up to and including deadline,
// window by window, leaving every shard clock at exactly deadline.
func (x *Sharded) RunUntil(deadline time.Duration) {
	if deadline < x.now {
		panic(fmt.Sprintf("sim: sharded RunUntil(%v) is in the past (now %v)", deadline, x.now))
	}
	// Posts made outside a window — agent construction and Start() calls
	// during the world build send real frames — sit in outboxes, which
	// nextTime cannot see. Merge them into the shard queues first, or the
	// first window could be computed past them.
	x.mergeMail()
	pool := x.workers > 1 && len(x.shards) > 2
	if pool {
		work := make(chan *ShardRuntime)
		x.work = work
		for i := 0; i < x.workers; i++ {
			go func() {
				for sh := range work {
					sh.s.RunUntil(x.we)
					x.wg.Done()
				}
			}()
		}
	}
	for {
		t, ok := x.nextTime()
		if !ok || t > deadline {
			break
		}
		we := t + x.lookahead - 1
		if we > deadline {
			we = deadline
		}
		x.we = we
		for _, fn := range x.onWindow {
			fn(t, we)
		}

		// Anchor solo slot: run-global state is written here, strictly
		// before any other shard reads it this window.
		if nt, ok := x.shards[0].s.NextTime(); ok && nt <= we {
			x.shards[0].s.RunUntil(we)
		}

		// Parallel slot: every non-anchor shard with work in the window.
		var dispatched int
		for _, sh := range x.shards[1:] {
			if nt, ok := sh.s.NextTime(); ok && nt <= we {
				if pool {
					x.wg.Add(1)
					x.work <- sh
					dispatched++
				} else {
					sh.s.RunUntil(we)
				}
			}
		}
		if dispatched > 0 {
			x.wg.Wait()
		}

		x.mergeMail()
	}
	if pool {
		close(x.work)
		x.work = nil
	}
	// Advance every clock to exactly deadline (no shard has events left at
	// or before it).
	x.we = deadline
	for _, sh := range x.shards {
		if sh.s.Now() < deadline {
			sh.s.RunUntil(deadline)
		}
	}
	x.now = deadline
}

// nextTime returns the earliest pending event time across all shards.
func (x *Sharded) nextTime() (time.Duration, bool) {
	var (
		best  time.Duration
		found bool
	)
	for _, sh := range x.shards {
		if t, ok := sh.s.NextTime(); ok && (!found || t < best) {
			best, found = t, true
		}
	}
	return best, found
}

// mergeMail drains every shard's outbox into the target shards in
// (time, source shard, post order) order — a pure function of simulation
// state, independent of which worker ran which shard.
func (x *Sharded) mergeMail() {
	mail := x.mail[:0]
	for _, sh := range x.shards {
		for i := range sh.outbox {
			m := sh.outbox[i]
			m.src, m.seq = sh.id, i
			mail = append(mail, m)
			sh.outbox[i] = mailItem{}
		}
		sh.outbox = sh.outbox[:0]
	}
	if len(mail) > 1 {
		slices.SortFunc(mail, func(a, b mailItem) int {
			switch {
			case a.at < b.at:
				return -1
			case a.at > b.at:
				return 1
			case a.src != b.src:
				return a.src - b.src
			default:
				return a.seq - b.seq
			}
		})
	}
	for i := range mail {
		m := mail[i]
		x.shards[m.to].s.AtFunc(m.at, m.fn, m.arg)
		mail[i] = mailItem{}
	}
	x.mail = mail[:0]
}

var (
	_ Runtime     = (*ShardRuntime)(nil)
	_ CrossPoster = (*ShardRuntime)(nil)
)

// Now returns the shard's local clock.
func (sh *ShardRuntime) Now() time.Duration { return sh.s.Now() }

// At schedules fn on this shard at absolute time t.
func (sh *ShardRuntime) At(t time.Duration, fn func()) Timer { return sh.s.At(t, fn) }

// After schedules fn on this shard d from the shard's now.
func (sh *ShardRuntime) After(d time.Duration, fn func()) Timer { return sh.s.After(d, fn) }

// AtFunc schedules fn(arg) on this shard at absolute time t.
func (sh *ShardRuntime) AtFunc(t time.Duration, fn func(any), arg any) Timer {
	return sh.s.AtFunc(t, fn, arg)
}

// AfterFunc schedules fn(arg) on this shard d from the shard's now.
func (sh *ShardRuntime) AfterFunc(d time.Duration, fn func(any), arg any) Timer {
	return sh.s.AfterFunc(d, fn, arg)
}

// ID returns the shard index (0 = anchor).
func (sh *ShardRuntime) ID() int { return sh.id }

// Scheduler exposes the shard's underlying serial scheduler, for callers
// that need its extended surface (diagnostics, idle hooks in tests).
func (sh *ShardRuntime) Scheduler() *Scheduler { return sh.s }

// PostFanout implements CrossPoster: the copies go on this shard's own
// queue.
func (sh *ShardRuntime) PostFanout(fn func(shared any, slot int32), shared any, copies []Copy) {
	sh.s.PostFanout(fn, shared, copies)
}

// PostTo implements CrossPoster. Same-shard posts are ordinary AtFuncs;
// cross-shard posts buffer in the outbox until the window barrier. A
// cross-shard post at or before the current window's end is a lookahead
// violation and panics — it could target a time the destination shard has
// already executed past.
func (sh *ShardRuntime) PostTo(dst Runtime, at time.Duration, fn func(any), arg any) {
	d, ok := dst.(*ShardRuntime)
	if !ok || d.x != sh.x {
		panic("sim: PostTo destination is not a shard of this run")
	}
	if d == sh {
		sh.s.AtFunc(at, fn, arg)
		return
	}
	if at <= sh.x.we {
		panic(fmt.Sprintf("sim: lookahead violation: shard %d posting to shard %d at %v inside window ending %v (lookahead %v)",
			sh.id, d.id, at, sh.x.we, sh.x.lookahead))
	}
	sh.outbox = append(sh.outbox, mailItem{to: d.id, at: at, fn: fn, arg: arg})
}
