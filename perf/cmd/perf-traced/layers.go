package main

import (
	"fmt"
	"sort"
	"time"

	"blackdp/internal/wire"
	"blackdp/perf/span"
	"blackdp/perf/workload"
)

// perLayer is the per-layer ledger every workload reports in its result
// line. Workload-specific figures (exp.speedup, pki.*_share, serve.*,
// radio.delivered.<kind>, the sharded world's counters) go in the record
// only, or under Unavailable with the reason where a workload cannot
// measure them.
var perLayer = []struct{ Name, Unit string }{
	{"scenario.build_ms", "ms"},
	{"scenario.allocs_per_rep", "count"},
	{"scenario.bytes_per_rep", "B"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_max", "count"},
	{"radio.sent_frames", "count"},
	{"radio.delivered_frames", "count"},
	{"radio.fanout", "ratio"},
	{"radio.lost_frames", "count"},
	{"radio.delivery_self_ns", "ns"},
	{"backbone.delivered_frames", "count"},
	{"core.recv_calls", "count"},
	{"core.recv_ns_p50", "ns"},
	{"core.recv_share", "fraction"},
	{"wire.decode_ns", "ns"},
	{"wire.secure_share", "fraction"},
	{"wire.decode_share_est", "fraction"},
	{"pki.open_ns", "ns"},
	{"core.auth_violations", "count"},
	{"aodv.rreq_forwarded", "count"},
	{"aodv.rrep_forwarded", "count"},
	{"aodv.beacons_sent", "count"},
	{"aodv.data_forwarded", "count"},
	{"cluster.joins", "count"},
	{"cluster.rejoins", "count"},
	{"core.dreq_received", "count"},
	{"core.examinations", "count"},
	{"core.revocations", "count"},
	{"core.probes_sent", "count"},
	{"core.detection_latency_ms", "sim_ms"},
	{"attack.replies_forged", "count"},
	{"attack.data_dropped", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "fraction"},
	{"runtime.heap_peak_mb", "MiB"},
}

// layerSet collects a traced run's per-layer metrics.
type layerSet struct {
	metrics     map[string]workload.Metric
	unavailable map[string]string
}

func newLayerSet() *layerSet {
	return &layerSet{metrics: map[string]workload.Metric{}, unavailable: map[string]string{}}
}

func (l *layerSet) set(name, unit string, v float64, samples int) {
	l.metrics[name] = workload.Metric{Value: v, Unit: unit, Samples: samples}
}

// put sets one of the perLayer metrics, with the unit the list gives it.
func (l *layerSet) put(name string, v float64, samples int) {
	for _, m := range perLayer {
		if m.Name == name {
			l.set(name, m.Unit, v, samples)
			return
		}
	}
	panic("perf-traced: " + name + " is not a per-layer metric")
}

func (l *layerSet) na(reason string, names ...string) {
	for _, n := range names {
		l.unavailable[n] = reason
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// untraced is the reference measurement of the same worlds a probe ran
// traced: the replications, their run wall-clock, and their allocations.
type untraced struct {
	reps          int
	runWall       time.Duration
	mallocs, byts uint64
}

// fromProbe fills the simulator-layer metrics from a probe and the
// untraced reference of the same worlds.
func (l *layerSet) fromProbe(p *probe, ref untraced) {
	c := p.c
	build := p.tr.Get("scenario.build")
	run := p.tr.Get("scenario.run")
	recv := p.tr.Get("core.recv")
	w := c.worlds

	l.put("scenario.build_ms", float64(build.Mean())/float64(time.Millisecond), int(build.Count))
	l.put("scenario.allocs_per_rep", ratio(float64(ref.mallocs), float64(ref.reps)), ref.reps)
	l.put("scenario.bytes_per_rep", ratio(float64(ref.byts), float64(ref.reps)), ref.reps)
	l.put("sim.events", float64(c.events), w)
	l.put("sim.ns_per_event", ratio(float64(ref.runWall), float64(c.events)), int(c.events))
	l.put("sim.pending_max", float64(p.pendingMax), int(c.events))
	l.put("radio.sent_frames", float64(c.sent), w)
	l.put("radio.delivered_frames", float64(c.delivered), w)
	l.put("radio.fanout", ratio(float64(c.delivered), float64(c.sent)), int(c.sent))
	l.put("radio.lost_frames", float64(c.lost), w)
	l.put("radio.delivery_self_ns", ratio(float64(p.rxSelf), float64(p.rxEvents)), int(p.rxEvents))
	l.put("backbone.delivered_frames", float64(c.backbone), w)
	l.put("core.recv_calls", float64(recv.Count), w)
	l.put("core.recv_ns_p50", float64(recv.Quantile(0.5)), int(recv.Count))
	l.put("core.recv_share", ratio(float64(recv.Total), float64(run.Total)), int(recv.Count))
	decodeNS := ratio(float64(p.replay.decodeTime), float64(p.replay.decodes))
	l.put("wire.decode_ns", decodeNS, p.replay.decodes)
	l.put("wire.secure_share", ratio(float64(c.byKind[wire.KindSecure.String()]), float64(c.delivered)), int(c.delivered))
	l.put("wire.decode_share_est", ratio(decodeNS*float64(c.delivered), float64(ref.runWall)), p.replay.decodes)
	l.put("pki.open_ns", ratio(float64(p.replay.openTime), float64(p.replay.opens)), p.replay.opens)
	l.put("core.auth_violations", float64(c.authViol), w)
	l.put("aodv.rreq_forwarded", float64(c.rreqFwd), w)
	l.put("aodv.rrep_forwarded", float64(c.rrepFwd), w)
	l.put("aodv.beacons_sent", float64(c.beacons), w)
	l.put("aodv.data_forwarded", float64(c.dataFwd), w)
	l.put("cluster.joins", float64(c.joins), w)
	l.put("cluster.rejoins", float64(c.rejoins), w)
	l.put("core.dreq_received", float64(c.dreq), w)
	l.put("core.examinations", float64(c.exams), w)
	l.put("core.revocations", float64(c.revocations), w)
	l.put("core.probes_sent", float64(c.probes), w)
	var lat time.Duration
	for _, d := range c.latencies {
		lat += d
	}
	l.put("core.detection_latency_ms", ratio(float64(lat)/float64(time.Millisecond), float64(len(c.latencies))), len(c.latencies))
	l.put("attack.replies_forged", float64(c.forged), w)
	l.put("attack.data_dropped", float64(c.dropped), w)
	kinds := make([]string, 0, len(c.byKind))
	for k := range c.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		l.set("radio.delivered."+k, "count", float64(c.byKind[k]), w)
	}
	if p.replay.openErrs > 0 {
		l.set("pki.open_failures", "count", float64(p.replay.openErrs), p.replay.opens)
	}
}

// fromRuntime fills the Go runtime metrics.
func (l *layerSet) fromRuntime(rs *runtimeSampler) {
	cycles, share, heap := rs.Stop()
	l.put("runtime.gc_cycles", cycles, 1)
	l.put("runtime.gc_cpu_share", share, 1)
	l.put("runtime.heap_peak_mb", heap, 1)
}

// simLedger splits a probe phase's wall-clock into the layers its spans
// reach. Head-side receptions, timers and backbone deliveries run inside
// events with no vehicle reception; nothing from outside can attribute
// them, so they stay in unattributed with the gaps between spans.
func simLedger(p *probe, wall time.Duration) span.Ledger {
	return span.NewLedger(wall,
		span.Entry{Layer: "scenario (build + run loop)", Self: p.tr.Get("scenario.build").Self + p.tr.Get("scenario.run").Self},
		span.Entry{Layer: "sim+radio delivery", Self: p.rxSelf},
		span.Entry{Layer: "core receive path", Self: p.tr.Get("core.recv").Self},
		span.Entry{Layer: "wire decode (replay)", Self: p.tr.Get("wire.decode").Self},
		span.Entry{Layer: "pki open (replay)", Self: p.tr.Get("pki.open").Self},
	)
}

// spanTable renders every aggregate of a tracer for the human log.
func spanTable(tr *span.Tracer) string {
	s := fmt.Sprintf("  %-16s %10s %10s %10s %10s\n", "span", "count", "total s", "self s", "p50")
	for _, a := range tr.Aggs() {
		if a.Count == 0 {
			continue
		}
		s += fmt.Sprintf("  %-16s %10d %10.3f %10.3f %10v\n", a.Name, a.Count, a.Total.Seconds(), a.Self.Seconds(), a.Quantile(0.5))
	}
	return s
}
