package sim

import "time"

// Runtime is the scheduling surface simulation components program against:
// the virtual clock plus the four ways to schedule work. *Scheduler
// implements it directly — the serial engine every run used before intra-run
// parallelism existed — and *ShardRuntime implements it for one shard of a
// sharded run. Agents hold a Runtime instead of a concrete *Scheduler so one
// world can place different agents on different shards without the protocol
// code knowing.
type Runtime interface {
	// Now returns the current virtual time of this runtime's clock.
	Now() time.Duration
	// At schedules fn at absolute virtual time t on this runtime.
	At(t time.Duration, fn func()) Timer
	// After schedules fn d from now on this runtime.
	After(d time.Duration, fn func()) Timer
	// AtFunc schedules fn(arg) at absolute virtual time t (the
	// allocation-free hot-path variant, see Scheduler.AtFunc).
	AtFunc(t time.Duration, fn func(any), arg any) Timer
	// AfterFunc schedules fn(arg) d from now.
	AfterFunc(d time.Duration, fn func(any), arg any) Timer
}

// CrossPoster is the optional cross-shard scheduling extension of Runtime.
// PostTo schedules fn(arg) at absolute time at on dst, which may belong to a
// different shard of the same sharded run. The radio layer uses it to route
// frame deliveries to the receiving device's home shard; a serial *Scheduler
// satisfies it trivially because every component shares the one scheduler.
//
// Cross-shard posts are subject to the run's lookahead: at must not precede
// the end of the window currently executing, or the conservative
// synchronization protocol would be violated (the sharded runtime panics).
//
// PostFanout posts a batch of copies of one event on the poster's own
// runtime (see Scheduler.PostFanout); the radio layer uses it for the copies
// of one transmission whose receivers share the sender's runtime.
type CrossPoster interface {
	PostTo(dst Runtime, at time.Duration, fn func(any), arg any)
	PostFanout(fn func(shared any, slot int32), shared any, copies []Copy)
}

var (
	_ Runtime     = (*Scheduler)(nil)
	_ CrossPoster = (*Scheduler)(nil)
)

// PostTo implements CrossPoster for the serial scheduler: dst is necessarily
// this same scheduler (a serial run has exactly one), so the post is a plain
// AtFunc. No Timer is returned — posts are fire-and-forget by design, which
// is what lets the sharded implementation route them through mailboxes.
func (s *Scheduler) PostTo(dst Runtime, at time.Duration, fn func(any), arg any) {
	if dst != Runtime(s) {
		panic("sim: serial PostTo with a foreign destination runtime")
	}
	s.AtFunc(at, fn, arg)
}
