package sim

import (
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 10, 5} {
		d := d
		s.At(d, func() { got = append(got, d) })
	}
	s.Run()
	want := []time.Duration{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSchedulerFIFOForEqualTimes(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(42, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestSchedulerClockAdvances(t *testing.T) {
	s := NewScheduler()
	s.At(100*time.Millisecond, func() {
		if s.Now() != 100*time.Millisecond {
			t.Errorf("Now() = %v inside event, want 100ms", s.Now())
		}
		s.After(50*time.Millisecond, func() {
			if s.Now() != 150*time.Millisecond {
				t.Errorf("Now() = %v inside nested event, want 150ms", s.Now())
			}
		})
	})
	s.Run()
	if s.Now() != 150*time.Millisecond {
		t.Errorf("final Now() = %v, want 150ms", s.Now())
	}
	if s.Executed() != 2 {
		t.Errorf("Executed() = %d, want 2", s.Executed())
	}
}

func TestSchedulerAtPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestSchedulerNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At(nil) did not panic")
		}
	}()
	NewScheduler().At(0, nil)
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.At(10, func() { fired = true })
	if !tm.Active() {
		t.Error("timer not active after scheduling")
	}
	if !tm.Stop() {
		t.Error("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop() = true")
	}
	if tm.Active() {
		t.Error("timer active after Stop")
	}
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler()
	tm := s.At(10, func() {})
	s.Run()
	if tm.Stop() {
		t.Error("Stop() = true after the event fired")
	}
}

func TestTimerStopMiddleOfHeap(t *testing.T) {
	// Cancelling an event in the middle of the heap must not disturb the
	// ordering of the remaining events.
	s := NewScheduler()
	var got []time.Duration
	var timers []Timer
	for _, d := range []time.Duration{50, 40, 30, 20, 10} {
		d := d
		timers = append(timers, s.At(d, func() { got = append(got, d) }))
	}
	timers[2].Stop() // the 30 event
	s.Run()
	want := []time.Duration{10, 20, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer Stop() = true")
	}
	if tm.Active() {
		t.Error("zero Timer Active() = true")
	}
	var nilTimer *Timer
	if nilTimer.Stop() || nilTimer.Active() {
		t.Error("nil Timer not inert")
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(10, func() { fired++ })
	s.At(20, func() { fired++ })
	s.At(30, func() { fired++ })
	s.RunUntil(20)
	if fired != 2 {
		t.Errorf("fired %d events by t=20, want 2", fired)
	}
	if s.Now() != 20 {
		t.Errorf("Now() = %v after RunUntil(20), want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	s.Run()
	if fired != 3 {
		t.Errorf("fired %d events total, want 3", fired)
	}
}

func TestRunFor(t *testing.T) {
	s := NewScheduler()
	s.RunFor(time.Second)
	if s.Now() != time.Second {
		t.Errorf("Now() = %v after empty RunFor(1s), want 1s", s.Now())
	}
	fired := false
	s.After(500*time.Millisecond, func() { fired = true })
	s.RunFor(time.Second)
	if !fired {
		t.Error("event within RunFor window did not fire")
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", s.Now())
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(10, func() { fired++; s.Stop() })
	s.At(20, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Errorf("fired %d events, want 1 (Stop should halt the run)", fired)
	}
	// A subsequent Run resumes.
	s.Run()
	if fired != 2 {
		t.Errorf("fired %d events after resume, want 2", fired)
	}
}

func TestOnIdleRefillsQueue(t *testing.T) {
	s := NewScheduler()
	rounds := 0
	s.OnIdle(func() {
		if rounds < 3 {
			rounds++
			s.After(10, func() {})
		}
	})
	s.At(0, func() {})
	s.Run()
	if rounds != 3 {
		t.Errorf("idle hook refilled %d times, want 3", rounds)
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestRunReentrancyPanics(t *testing.T) {
	s := NewScheduler()
	s.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entering Run did not panic")
			}
		}()
		s.Run()
	})
	s.Run()
}

// TestSchedulerOrderProperty checks, over random workloads, that events never
// fire with a decreasing clock and that all non-cancelled events fire.
func TestSchedulerOrderProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		count := int(n)%64 + 1
		last := time.Duration(-1)
		fired := 0
		ok := true
		for i := 0; i < count; i++ {
			at := time.Duration(r.Intn(1000))
			s.At(at, func() {
				if at < last {
					ok = false
				}
				last = at
				fired++
			})
		}
		s.Run()
		return ok && fired == count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerCancelProperty randomly cancels a subset of events and checks
// exactly the surviving ones fire, in order.
func TestSchedulerCancelProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		const n = 40
		fired := make([]bool, n)
		timers := make([]Timer, n)
		for i := 0; i < n; i++ {
			i := i
			timers[i] = s.At(time.Duration(r.Intn(100)), func() { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				cancelled[i] = true
				timers[i].Stop()
			}
		}
		s.Run()
		for i := 0; i < n; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGSplitDecorrelates(t *testing.T) {
	g := NewRNG(7)
	a := g.Split("radio")
	g2 := NewRNG(7)
	b := g2.Split("mobility")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("differently-labelled splits matched %d/64 draws", same)
	}
}

// TestRNGSplitMatchesEagerDerivation pins the stream a split yields to the
// historical eager derivation — seed = FNV-1a(label) XOR the parent's next
// Int63 — however late the child's first draw comes, and pins the parent
// to advance by exactly one draw per split, used or not.
func TestRNGSplitMatchesEagerDerivation(t *testing.T) {
	ref := rand.New(rand.NewSource(7))
	g := NewRNG(7)
	labels := []string{"crypto", "core", "radio", "issue-veh-1", ""}
	var children []*RNG
	var want []*rand.Rand
	for _, label := range labels {
		h := fnv.New64a()
		h.Write([]byte(label))
		want = append(want, rand.New(rand.NewSource(int64(h.Sum64())^ref.Int63())))
		children = append(children, g.Split(label))
	}
	if g.Int63() != ref.Int63() {
		t.Fatal("parent stream drifted from one draw per split")
	}
	for i := len(children) - 1; i >= 0; i-- { // first draws in reverse split order
		for d := 0; d < 4; d++ {
			if got, w := children[i].Int63(), want[i].Int63(); got != w {
				t.Fatalf("split %q draw %d = %d, want %d", labels[i], d, got, w)
			}
		}
	}
}

// TestAllocsSplit pins an unused split at one allocation: the stream header,
// with its source left unseeded until the first draw.
func TestAllocsSplit(t *testing.T) {
	g := NewRNG(1)
	allocBudget(t, "split", 1, func() { _ = g.Split("issue-veh-1") })
}

func TestRNGRangeBounds(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Range(13.9, 25.0)
		if v < 13.9 || v >= 25.0 {
			t.Fatalf("Range draw %v out of [13.9, 25.0)", v)
		}
	}
	if g.Range(5, 5) != 5 {
		t.Error("degenerate Range(5,5) != 5")
	}
}

func TestRNGDurationBounds(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := g.Duration(time.Millisecond, time.Second)
		if v < time.Millisecond || v >= time.Second {
			t.Fatalf("Duration draw %v out of [1ms, 1s)", v)
		}
	}
	if g.Duration(time.Second, time.Second) != time.Second {
		t.Error("degenerate Duration != lo")
	}
}

func TestRNGBool(t *testing.T) {
	g := NewRNG(3)
	if g.Bool(0) {
		t.Error("Bool(0) = true")
	}
	if !g.Bool(1) {
		t.Error("Bool(1) = false")
	}
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("Bool(0.3) frequency = %v, want ~0.3", frac)
	}
}

func TestRNGJitter(t *testing.T) {
	g := NewRNG(4)
	if g.Jitter(0) != 0 {
		t.Error("Jitter(0) != 0")
	}
	for i := 0; i < 100; i++ {
		if v := g.Jitter(time.Millisecond); v < 0 || v >= time.Millisecond {
			t.Fatalf("Jitter draw %v out of [0, 1ms)", v)
		}
	}
}
