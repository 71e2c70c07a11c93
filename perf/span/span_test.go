package span

import (
	"testing"
	"time"
)

// fakeClock is a tracer clock the test moves by hand.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) read() time.Duration { return c.now }

func newFake() (*Tracer, *fakeClock) {
	c := &fakeClock{}
	t := New()
	t.Clock = c.read
	return t, c
}

// The synthetic run: build [0,10), run [10,100) with three events, the
// first and third receiving a frame, and a gap [100,105) before the wall
// ends at 105.
//
//	build  0..10
//	run    10..100
//	  event 12..40   recv 15..30
//	  event 40..55
//	  event 55..95   recv 60..90
func buildTree(t *testing.T) (*Tracer, map[string]time.Duration) {
	tr, c := newFake()
	build, run, event, recv := tr.Name("build"), tr.Name("run"), tr.Name("event"), tr.Name("recv")
	at := func(ns time.Duration) { c.now = ns }
	rxSelf := time.Duration(0)
	otherSelf := time.Duration(0)
	endEvent := func() {
		_, self, kids := tr.End()
		if kids > 0 {
			rxSelf += self
		} else {
			otherSelf += self
		}
	}

	at(0)
	tr.Begin(build)
	at(10)
	tr.End()
	tr.Begin(run)
	at(12)
	tr.Begin(event)
	at(15)
	tr.Begin(recv)
	at(30)
	tr.End()
	at(40)
	endEvent()
	tr.Begin(event)
	at(55)
	endEvent()
	tr.Begin(event)
	at(60)
	tr.Begin(recv)
	at(90)
	tr.End()
	at(95)
	endEvent()
	at(100)
	_, runSelf, _ := tr.End()
	return tr, map[string]time.Duration{"run": runSelf, "rx": rxSelf, "other": otherSelf}
}

func TestSelfTimeSubtractsDirectChildrenOnly(t *testing.T) {
	tr, parts := buildTree(t)
	want := map[string]struct {
		count       uint64
		total, self time.Duration
	}{
		"build": {1, 10, 10},
		"run":   {1, 90, 90 - (28 + 15 + 40)},
		"event": {3, 28 + 15 + 40, (28 - 15) + 15 + (40 - 30)},
		"recv":  {2, 45, 45},
	}
	for name, w := range want {
		a := tr.Get(name)
		if a.Count != w.count || a.Total != w.total || a.Self != w.self {
			t.Errorf("%s: count %d total %v self %v, want %d %v %v", name, a.Count, a.Total, a.Self, w.count, w.total, w.self)
		}
	}
	if parts["rx"] != 13+10 || parts["other"] != 15 {
		t.Errorf("event self split rx %v other %v, want 23 and 15", parts["rx"], parts["other"])
	}
}

func TestLedgerClosesOnSyntheticTree(t *testing.T) {
	tr, parts := buildTree(t)
	const wall = 105
	l := NewLedger(wall,
		Entry{"scenario", tr.Get("build").Self + parts["run"]},
		Entry{"radio", parts["rx"]},
		Entry{"core", tr.Get("recv").Self},
	)
	if err := l.Check(0); err != nil {
		t.Fatal(err)
	}
	// Unattributed: the event with no receive (15) plus the gap (5).
	if l.Unattributed != 20 {
		t.Fatalf("unattributed %v, want 20", l.Unattributed)
	}
	// The self times of every span sum to the root intervals they tile.
	var sum time.Duration
	for _, a := range tr.Aggs() {
		sum += a.Self
	}
	if sum != 100 {
		t.Fatalf("self times sum to %v, want the 100 the spans cover", sum)
	}
}

func TestLedgerCheckCatchesOverlap(t *testing.T) {
	l := NewLedger(10, Entry{"a", 8}, Entry{"b", 5})
	if err := l.Check(0); err == nil {
		t.Fatal("layers exceeding the wall must not close")
	}
	l = NewLedger(10, Entry{"a", -3})
	if err := l.Check(1); err == nil {
		t.Fatal("a negative layer must not close")
	}
}

func TestQuantileFromHistogram(t *testing.T) {
	tr, _ := newFake()
	h := tr.Name("x")
	for i := 1; i <= 1000; i++ {
		tr.Record(h, time.Duration(i*1000), 0) // 1us .. 1ms
	}
	a := tr.Get("x")
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500_000}, {0.95, 950_000}, {0.01, 10_000}} {
		got := a.Quantile(c.q)
		if d := float64(got-c.want) / float64(c.want); d < -0.125 || d > 0.125 {
			t.Errorf("q%.2f = %v, want %v within 12.5%%", c.q, got, c.want)
		}
	}
	if a.Mean() != 500_500 {
		t.Errorf("mean %v", a.Mean())
	}
	// Every value's bucket midpoint lies within 1/16 of the value.
	for _, ns := range []int64{0, 1, 7, 8, 15, 35, 63, 64, 1000, 123_456_789} {
		mid := bucketMid(bucketOf(ns))
		if d := mid - float64(ns); d < -float64(ns)/16-0.5 || d > float64(ns)/16+0.5 {
			t.Errorf("%dns lands in a bucket with midpoint %v", ns, mid)
		}
	}
}
