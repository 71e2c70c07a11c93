package sim

import (
	"testing"
	"time"
)

// allocBudget asserts an AllocsPerRun measurement against a pinned budget.
// The budgets are the regression fence for the event-pooling work: raising
// one needs a profile showing why. Skipped under the race detector, whose
// instrumentation inflates allocation counts.
func allocBudget(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	if got := testing.AllocsPerRun(200, fn); got > budget {
		t.Errorf("%s: %.1f allocs/op, budget %.1f", name, got, budget)
	}
}

// TestAllocsScheduleFire pins the steady-state schedule+fire path at zero
// allocations: event records come from the free list and the Timer handle is
// a stack value.
func TestAllocsScheduleFire(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm the pool.
	for i := 0; i < 8; i++ {
		s.After(time.Microsecond, fn)
		s.Step()
	}
	allocBudget(t, "schedule+fire", 0, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	})
}

// TestAllocsScheduleCancel pins schedule+Stop at zero allocations.
func TestAllocsScheduleCancel(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 8; i++ {
		tm := s.After(time.Second, fn)
		tm.Stop()
	}
	allocBudget(t, "schedule+cancel", 0, func() {
		tm := s.After(time.Second, fn)
		tm.Stop()
	})
}

// TestAllocsScheduleHold pins the hold model (pop one, push one at depth
// holdDepth) at zero allocations: heap slots are reused in place.
func TestAllocsScheduleHold(t *testing.T) {
	s := newHoldModel()
	allocBudget(t, "hold", 0, func() { s.Step() })
	if s.Pending() != holdDepth {
		t.Fatalf("hold model drifted to depth %d, want %d", s.Pending(), holdDepth)
	}
}

// TestAllocsAfterFunc pins the arg-style path at zero allocations when the
// argument is a pointer (boxing a pointer into an interface does not
// allocate).
func TestAllocsAfterFunc(t *testing.T) {
	s := NewScheduler()
	type payload struct{ n int }
	p := &payload{}
	fn := func(a any) { a.(*payload).n++ }
	for i := 0; i < 8; i++ {
		s.AfterFunc(time.Microsecond, fn, p)
		s.Step()
	}
	allocBudget(t, "AfterFunc+fire", 0, func() {
		s.AfterFunc(time.Microsecond, fn, p)
		s.Step()
	})
	if p.n == 0 {
		t.Fatal("callback never ran")
	}
}

// TestStaleTimerAfterReuse proves the generation fence: a Timer whose event
// fired must stay inert even after its record has been recycled into a new
// pending event — Stop must not cancel the record's next life.
func TestStaleTimerAfterReuse(t *testing.T) {
	s := NewScheduler()
	fired := 0
	old := s.After(time.Millisecond, func() {})
	s.Step() // fires; record returns to the pool
	tm := s.After(time.Millisecond, func() { fired++ })
	if old.Stop() {
		t.Error("stale Timer.Stop() = true after its event fired")
	}
	if old.Active() {
		t.Error("stale Timer.Active() = true")
	}
	if !tm.Active() {
		t.Fatal("new event lost: stale handle cancelled a recycled record")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("recycled event fired %d times, want 1", fired)
	}
}

// TestSharedEventPoolAcrossSchedulers exercises the cross-replication reuse
// path: a second scheduler on the same pool starts with a warmed free list,
// and its behaviour is identical to a private-pool scheduler's.
func TestSharedEventPoolAcrossSchedulers(t *testing.T) {
	pool := NewEventPool()
	run := func(s *Scheduler) []time.Duration {
		var got []time.Duration
		for _, d := range []time.Duration{30, 10, 20} {
			s.At(d, func() { got = append(got, s.Now()) })
		}
		s.Run()
		return got
	}
	first := run(NewSchedulerWithPool(pool))
	second := run(NewSchedulerWithPool(pool))
	want := []time.Duration{10, 20, 30}
	for i, w := range want {
		if first[i] != w || second[i] != w {
			t.Fatalf("order diverged: first %v second %v want %v", first, second, want)
		}
	}
	if len(pool.free) == 0 {
		t.Error("pool retained no records after two runs")
	}
}

// TestSchedulerOrderWithPooling re-checks FIFO-among-equal-times under heavy
// recycle pressure: interleaved schedule/fire/cancel cycles must preserve
// (time, seq) ordering exactly.
func TestSchedulerOrderWithPooling(t *testing.T) {
	s := NewScheduler()
	var got []int
	// Round 1 populates and drains the pool.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i%7)*time.Millisecond, func() {})
	}
	s.Run()
	// Round 2: equal-time events must fire in schedule order even though
	// their records come back from the free list in LIFO order.
	base := s.Now()
	for i := 0; i < 32; i++ {
		i := i
		s.At(base+time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time FIFO broken at %d: got %v", i, got)
		}
	}
}
