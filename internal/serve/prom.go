package serve

// Hand-rolled Prometheus text-format metrics (exposition format 0.0.4).
// The service is stdlib-only, so instead of the client library this file
// implements exactly the instrument shapes the /metrics endpoint needs:
// monotone counters (stored or sampled), labelled counter families, sampled
// gauges, and a fixed-bucket histogram. Metrics render in registration
// order, so the exposition document is deterministic for the tests.

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
)

type metric interface {
	expose(w io.Writer) error
}

// Registry holds the service's metrics and renders the exposition document.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
}

// Render writes the full exposition document to w.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		if err := m.expose(w); err != nil {
			return err
		}
	}
	return nil
}

func header(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Counter is a monotone uint64 counter.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Counter registers a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) expose(w io.Writer) error {
	if err := header(w, c.name, c.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
	return err
}

// CounterVec is a counter family over one label with a fixed value set
// declared at registration (so the exposition order is stable).
type CounterVec struct {
	name, help, label string
	values            []string
	series            map[string]*atomic.Uint64
}

// CounterVec registers a counter family; incrementing an undeclared label
// value panics, which keeps the value set closed and the output ordered.
func (r *Registry) CounterVec(name, help, label string, values ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label,
		values: values, series: make(map[string]*atomic.Uint64, len(values))}
	for _, val := range values {
		v.series[val] = new(atomic.Uint64)
	}
	r.register(v)
	return v
}

func (v *CounterVec) at(value string) *atomic.Uint64 {
	c, ok := v.series[value]
	if !ok {
		panic(fmt.Sprintf("serve: counter %s has no label %s=%q", v.name, v.label, value))
	}
	return c
}

// Inc adds one to the series for value.
func (v *CounterVec) Inc(value string) { v.at(value).Add(1) }

// Value reads the series for value.
func (v *CounterVec) Value(value string) uint64 { return v.at(value).Load() }

func (v *CounterVec) expose(w io.Writer) error {
	if err := header(w, v.name, v.help, "counter"); err != nil {
		return err
	}
	for _, val := range v.values {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, val, v.series[val].Load()); err != nil {
			return err
		}
	}
	return nil
}

// funcMetric samples a value at render time — used for gauges derived from
// live server state (queue depth, running jobs) and for counters owned by
// another component (the cache keeps its own hit/miss tallies).
type funcMetric struct {
	name, help, typ string
	fn              func() float64
}

func (m *funcMetric) expose(w io.Writer) error {
	if err := header(w, m.name, m.help, m.typ); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.fn()))
	return err
}

// GaugeFunc registers a gauge sampled from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{name: name, help: help, typ: "gauge", fn: fn})
}

// CounterFunc registers a counter whose value lives elsewhere; fn must be
// monotone.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&funcMetric{name: name, help: help, typ: "counter",
		fn: func() float64 { return float64(fn()) }})
}

// funcVecMetric samples one value per declared label value at render time —
// per-tenant gauges (queue depth, running jobs) derive from live admission
// state the same way the unlabelled gauges do.
type funcVecMetric struct {
	name, help, typ, label string
	values                 []string
	fn                     func(value string) float64
}

func (m *funcVecMetric) expose(w io.Writer) error {
	if err := header(w, m.name, m.help, m.typ); err != nil {
		return err
	}
	for _, val := range m.values {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", m.name, m.label, val, formatFloat(m.fn(val))); err != nil {
			return err
		}
	}
	return nil
}

// GaugeVecFunc registers a labelled gauge family with a fixed value set,
// sampled from fn at render time.
func (r *Registry) GaugeVecFunc(name, help, label string, values []string, fn func(value string) float64) {
	r.register(&funcVecMetric{name: name, help: help, typ: "gauge",
		label: label, values: values, fn: fn})
}

// Histogram is a fixed-bucket histogram with the standard cumulative
// exposition (every bucket counts observations <= its bound, plus +Inf).
type Histogram struct {
	name, help string
	bounds     []float64

	mu     sync.Mutex
	counts []uint64 // one per bound, plus the +Inf overflow at the end
	sum    float64
	n      uint64
}

// Histogram registers a histogram over the given ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("serve: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
	h := &Histogram{name: name, help: help, bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := len(h.bounds) // +Inf
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.sum += v
	h.n++
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

func (h *Histogram) expose(w io.Writer) error {
	if err := header(w, h.name, h.help, "histogram"); err != nil {
		return err
	}
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, n := h.sum, h.n
	h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, n); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.name, n)
	return err
}
