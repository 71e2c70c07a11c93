// Package span records the benchmark's traced spans in memory and
// aggregates them by name: count, total time, self time and a log-linear
// histogram of durations. Millions of per-event spans fold into a handful
// of aggregates instead of being kept one by one.
//
// A span's self time is its duration minus the durations of its direct
// children. Spans nest on a stack (Begin/End), which fits the single
// goroutine that drives a serial simulation; spans timed elsewhere — a
// client reading stream lines, for one — enter through Record.
package span

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// subBuckets is the number of histogram buckets per power of two: 8 gives
// every bucket a width of at most 12.5% of its lower edge.
const subBuckets = 8

// Agg is the aggregate of every span recorded under one name.
type Agg struct {
	Name  string
	Count uint64
	Total time.Duration
	Self  time.Duration
	hist  [64 * subBuckets]uint64
}

func bucketOf(ns int64) int {
	if ns < subBuckets {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	u := uint64(ns)
	exp := bits.Len64(u) - 1 // position of the leading bit, >= 3
	mant := int(u>>(exp-3)) & (subBuckets - 1)
	return (exp-2)*subBuckets + mant
}

// bucketMid is the midpoint of bucket b's value range.
func bucketMid(b int) float64 {
	if b < subBuckets {
		return float64(b)
	}
	exp := b/subBuckets + 2
	mant := b % subBuckets
	lo := float64(uint64(subBuckets+mant) << (exp - 3))
	width := float64(uint64(1) << (exp - 3))
	return lo + width/2
}

func (a *Agg) add(dur, self time.Duration) {
	a.Count++
	a.Total += dur
	a.Self += self
	a.hist[bucketOf(int64(dur))]++
}

// Quantile estimates the q-th quantile (0 < q <= 1) of the recorded span
// durations from the histogram, as the midpoint of the bucket holding that
// rank; 0 when nothing was recorded.
func (a *Agg) Quantile(q float64) time.Duration {
	if a.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(a.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, n := range a.hist {
		seen += n
		if seen >= rank {
			return time.Duration(bucketMid(b))
		}
	}
	return 0
}

// Mean is the mean span duration; 0 when nothing was recorded.
func (a *Agg) Mean() time.Duration {
	if a.Count == 0 {
		return 0
	}
	return a.Total / time.Duration(a.Count)
}

// Handle names an aggregate for the hot path: Begin takes a Handle, not a
// string, so recording a span costs no map lookup.
type Handle int

type frame struct {
	h        Handle
	start    time.Duration
	child    time.Duration
	children int
}

// Tracer holds the span stack and the aggregates. It is not safe for
// concurrent use.
type Tracer struct {
	// Clock reads the current time as a duration from an arbitrary origin.
	// New sets a monotonic wall clock; tests substitute a fake one.
	Clock func() time.Duration

	aggs  []*Agg
	index map[string]Handle
	stack []frame
}

// New returns an empty tracer on the monotonic wall clock.
func New() *Tracer {
	origin := time.Now()
	return &Tracer{Clock: func() time.Duration { return time.Since(origin) }, index: map[string]Handle{}}
}

// Name returns the handle of the aggregate called name, creating it.
func (t *Tracer) Name(name string) Handle {
	if h, ok := t.index[name]; ok {
		return h
	}
	h := Handle(len(t.aggs))
	t.aggs = append(t.aggs, &Agg{Name: name})
	t.index[name] = h
	return h
}

// Begin opens a span under h, nested in the innermost open span.
func (t *Tracer) Begin(h Handle) {
	t.stack = append(t.stack, frame{h: h, start: t.Clock()})
}

// End closes the innermost open span and returns its duration, its self
// time and how many direct children it had. It panics when no span is open:
// unbalanced Begin/End is a bug in the caller.
func (t *Tracer) End() (dur, self time.Duration, children int) {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur = t.Clock() - f.start
	self = dur - f.child
	t.aggs[f.h].add(dur, self)
	if n > 0 {
		p := &t.stack[n-1]
		p.child += dur
		p.children++
	}
	return dur, self, f.children
}

// Record adds one span timed by the caller: its duration and the summed
// durations of its children.
func (t *Tracer) Record(h Handle, dur, children time.Duration) {
	t.aggs[h].add(dur, dur-children)
}

// Get returns the aggregate called name, or an empty one.
func (t *Tracer) Get(name string) *Agg {
	if h, ok := t.index[name]; ok {
		return t.aggs[h]
	}
	return &Agg{Name: name}
}

// Aggs returns every aggregate, by name.
func (t *Tracer) Aggs() []*Agg {
	out := append([]*Agg(nil), t.aggs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Entry is one layer's line in a Ledger.
type Entry struct {
	Layer string        `json:"layer"`
	Self  time.Duration `json:"self_ns"`
}

// Ledger splits a traced wall-clock interval into per-layer self times and
// an explicit unattributed remainder, so the lines always sum to the wall.
type Ledger struct {
	Wall         time.Duration `json:"wall_ns"`
	Layers       []Entry       `json:"layers"`
	Unattributed time.Duration `json:"unattributed_ns"`
}

// NewLedger builds the ledger of wall from the given layer entries; the
// unattributed line is whatever the entries leave of the wall.
func NewLedger(wall time.Duration, entries ...Entry) Ledger {
	l := Ledger{Wall: wall, Layers: entries, Unattributed: wall}
	for _, e := range entries {
		l.Unattributed -= e.Self
	}
	return l
}

// Check reports a ledger that does not close: a negative line beyond
// tolerance (spans that overlap the wall or each other), or lines that do
// not sum to the wall.
func (l Ledger) Check(tolerance time.Duration) error {
	sum := l.Unattributed
	for _, e := range l.Layers {
		if e.Self < -tolerance {
			return fmt.Errorf("span: layer %s has negative self time %v", e.Layer, e.Self)
		}
		sum += e.Self
	}
	if l.Unattributed < -tolerance {
		return fmt.Errorf("span: layers exceed the wall by %v", -l.Unattributed)
	}
	if sum != l.Wall {
		return fmt.Errorf("span: ledger sums to %v, wall is %v", sum, l.Wall)
	}
	return nil
}

// String renders the ledger as one line per layer with its share of the
// wall.
func (l Ledger) String() string {
	var b strings.Builder
	share := func(d time.Duration) float64 {
		if l.Wall == 0 {
			return 0
		}
		return 100 * float64(d) / float64(l.Wall)
	}
	for _, e := range l.Layers {
		fmt.Fprintf(&b, "  %-22s %10.3f s %6.1f%%\n", e.Layer, e.Self.Seconds(), share(e.Self))
	}
	fmt.Fprintf(&b, "  %-22s %10.3f s %6.1f%%\n", "unattributed", l.Unattributed.Seconds(), share(l.Unattributed))
	fmt.Fprintf(&b, "  %-22s %10.3f s\n", "wall", l.Wall.Seconds())
	return b.String()
}
