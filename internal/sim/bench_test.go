package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduleFire measures raw event throughput: schedule + fire.
func BenchmarkScheduleFire(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}

// BenchmarkScheduleBurst measures heap behaviour with many pending events.
func BenchmarkScheduleBurst(b *testing.B) {
	const burst = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		rng := NewRNG(int64(i))
		for j := 0; j < burst; j++ {
			s.At(time.Duration(rng.IntN(1_000_000)), func() {})
		}
		s.Run()
	}
}

// holdDepth is the steady queue depth of the hold model: the Table I
// world's peak pending-event count.
const holdDepth = 2500

// newHoldModel returns a scheduler holding holdDepth pending events in which
// every fired event schedules one successor at now + a uniform jitter, so
// each Step is one pop and one push at constant depth — the classic hold
// model of event-queue benchmarking. Jitters come from a pre-drawn table so
// the measurement is the queue, not the RNG.
func newHoldModel() *Scheduler {
	s := NewScheduler()
	rng := NewRNG(1)
	jitter := make([]time.Duration, 4096)
	for i := range jitter {
		jitter[i] = rng.Jitter(10 * time.Millisecond)
	}
	k := 0
	var fn func()
	fn = func() {
		s.After(jitter[k%len(jitter)], fn)
		k++
	}
	for i := 0; i < holdDepth; i++ {
		fn()
	}
	return s
}

// BenchmarkScheduleHold measures one pop plus one push at the Table I
// world's steady queue depth.
func BenchmarkScheduleHold(b *testing.B) {
	s := newHoldModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkTimerCancel measures schedule-then-cancel (the protocol stack's
// dominant timer pattern).
func BenchmarkTimerCancel(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := s.After(time.Second, func() {})
		t.Stop()
	}
}

// BenchmarkRNGDraws measures the decision-stream cost.
func BenchmarkRNGDraws(b *testing.B) {
	g := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Float64()
		_ = g.Jitter(time.Millisecond)
	}
}
