package sim

import (
	"sort"
	"testing"
	"time"
)

// oracleEntry is one pending event in the reference queue.
type oracleEntry struct {
	time time.Duration
	seq  uint64
	id   int
}

// orderOracle is the reference event queue: a slice kept sorted by
// (time, seq), so its head is by definition the next event to fire.
type orderOracle struct {
	pending []oracleEntry
	seq     uint64
}

func (o *orderOracle) push(t time.Duration, id int) {
	e := oracleEntry{time: t, seq: o.seq, id: id}
	o.seq++
	i := sort.Search(len(o.pending), func(i int) bool {
		p := o.pending[i]
		return p.time > e.time || (p.time == e.time && p.seq > e.seq)
	})
	o.pending = append(o.pending, oracleEntry{})
	copy(o.pending[i+1:], o.pending[i:])
	o.pending[i] = e
}

func (o *orderOracle) pop() oracleEntry {
	e := o.pending[0]
	o.pending = o.pending[1:]
	return e
}

// remove drops id, reporting whether it was pending.
func (o *orderOracle) remove(id int) bool {
	for i, e := range o.pending {
		if e.id == id {
			o.pending = append(o.pending[:i], o.pending[i+1:]...)
			return true
		}
	}
	return false
}

// FuzzSchedulerOrder decodes bytes into interleaved At, AtFunc, Timer.Stop,
// Step and RunUntil operations and checks the scheduler against a sorted-
// slice reference: events must fire in (time, seq) order, Stop must report
// exactly whether it cancelled a pending event (also for handles that already
// fired, were already stopped, or whose record has been recycled), and
// Pending, NextTime and Now must match the reference after every operation.
// Small time deltas make equal timestamps common, so FIFO tie-breaking is
// exercised throughout.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 3, 3, 3})
	f.Add([]byte{0, 1, 0, 2, 1, 1, 0, 3, 2, 1, 2, 0, 3, 2, 1, 4, 5})
	f.Add([]byte{0, 2, 0, 2, 0, 2, 0, 2, 2, 2, 2, 0, 3, 2, 0, 2, 3, 0, 1, 4, 7, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewScheduler()
		var o orderOracle
		var handles []Timer
		var fired, want []int
		record := func(a any) { fired = append(fired, a.(int)) }
		next := func(i *int) byte {
			if *i >= len(data) {
				return 0
			}
			b := data[*i]
			*i++
			return b
		}
		for i := 0; i < len(data); {
			switch op := next(&i); op % 5 {
			case 0, 1: // At / AtFunc at now + a small delta
				id := len(handles)
				at := s.Now() + time.Duration(next(&i)%4)
				if op%5 == 0 {
					handles = append(handles, s.At(at, func() { record(id) }))
				} else {
					handles = append(handles, s.AtFunc(at, record, id))
				}
				o.push(at, id)
			case 2: // Stop a pending, fired, stopped or recycled handle
				if len(handles) == 0 {
					continue
				}
				id := int(next(&i)) % len(handles)
				wantStopped := o.remove(id)
				if got := handles[id].Stop(); got != wantStopped {
					t.Fatalf("Stop(handle %d) = %v, want %v", id, got, wantStopped)
				}
			case 3: // Step
				wantFired := len(o.pending) > 0
				wantNow := s.Now()
				if wantFired {
					e := o.pop()
					want = append(want, e.id)
					wantNow = e.time
				}
				if got := s.Step(); got != wantFired {
					t.Fatalf("Step() = %v, want %v", got, wantFired)
				}
				if s.Now() != wantNow {
					t.Fatalf("Step left the clock at %v, want %v", s.Now(), wantNow)
				}
			case 4: // RunUntil now + a small delta
				deadline := s.Now() + time.Duration(next(&i)%8)
				for len(o.pending) > 0 && o.pending[0].time <= deadline {
					want = append(want, o.pop().id)
				}
				s.RunUntil(deadline)
				if s.Now() != deadline {
					t.Fatalf("RunUntil(%v) left the clock at %v", deadline, s.Now())
				}
			}
			if len(fired) != len(want) {
				t.Fatalf("fired %v, want %v", fired, want)
			}
			for k := range want {
				if fired[k] != want[k] {
					t.Fatalf("fire order %v, want %v", fired, want)
				}
			}
			if s.Pending() != len(o.pending) {
				t.Fatalf("Pending() = %d, want %d", s.Pending(), len(o.pending))
			}
			nt, ok := s.NextTime()
			if ok != (len(o.pending) > 0) || (ok && nt != o.pending[0].time) {
				t.Fatalf("NextTime() = %v, %v; reference head %v", nt, ok, o.pending)
			}
			for _, e := range o.pending {
				if !handles[e.id].Active() {
					t.Fatalf("handle %d inactive while pending", e.id)
				}
			}
		}
	})
}
